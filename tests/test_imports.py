"""Dependency guard: importing xfermon loads the standard library and orjson only."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Site start-up may already load third-party modules (a .pth file, say), so
# only the modules the imports below add are checked. The standard library's
# build-configuration module is named per platform (_sysconfigdata_<abi>_<os>),
# so sys.stdlib_module_names does not list it.
PROBE = """
import pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import xfermon, xfermon.cli
for info in pkgutil.walk_packages(xfermon.__path__, "xfermon."):
    __import__(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
added -= set(sys.stdlib_module_names)
print(" ".join(sorted(n for n in added if not n.startswith("_sysconfigdata_"))))
"""


def test_imports_load_only_declared_runtime_dependencies():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == {"xfermon", "orjson"}
