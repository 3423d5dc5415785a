"""Set-up probe: a fresh process imports popres.cli and finishes one command.

Usage: python3 perfbench/probe.py <src-dir> <popres arguments...>
The exit code is the command's.
"""

import sys

sys.path.insert(0, sys.argv[1])

from popres import cli  # noqa: E402

sys.exit(cli.main(sys.argv[2:]))
