import sys
from pathlib import Path

# the benchmark's modules sit next to run.py, not in a package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
# the program under test, from the same checkout
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
