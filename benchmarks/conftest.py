import sys
from pathlib import Path

# Import pptgeo from this checkout's src/, as tier-1 does with PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
