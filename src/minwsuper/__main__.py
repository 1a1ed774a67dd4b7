"""``python -m minwsuper``: the command line of ``minwsuper.cli``."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="minwsuper")
