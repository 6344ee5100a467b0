"""``python -m adiab``: the ``adiab`` command line, runnable from a checkout."""
from adiab.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
