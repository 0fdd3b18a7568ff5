"""The repository benchmark (``python -m bench``); see bench/README.md."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the program under test: always the checkout's own source tree
SRC = ROOT / "src"
