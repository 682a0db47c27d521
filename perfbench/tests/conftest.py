import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
