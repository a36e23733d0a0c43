import sys
from pathlib import Path

# The benchmark's modules import each other as top-level names, the way
# `python3 perfbench/run.py` finds them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
