import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from hypothesis import settings

settings.register_profile("ecgsym", deadline=None)
settings.load_profile("ecgsym")
