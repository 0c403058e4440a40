"""One cold start: import jetgeo.cli, then load the given spec files.

Usage: python3 perfbench/coldstart.py [--jets FILE] CONN.json ...
Prints the seconds taken, measured inside the fresh interpreter.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import jetgeo.cli  # noqa: E402,F401
from jetgeo.connections import load_connection  # noqa: E402
from jetgeo.jets import load_jets  # noqa: E402

args = sys.argv[1:]
while args:
    if args[0] == "--jets":
        load_jets(args[1])
        args = args[2:]
    else:
        load_connection(args[0])
        args = args[1:]
print(repr(time.perf_counter() - start))
