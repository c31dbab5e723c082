"""The runtime imports neither scipy nor networkx.

Both are absent from ``[project].dependencies``: scipy is only a test
oracle, and ``import scipy.optimize`` alone adds tens of MB of resident
memory to every server process. This guard fails the suite as soon as a
module under ``repro`` starts importing either one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_runtime_does_not_import_scipy_or_networkx():
    probe = (
        "import sys\n"
        "import repro, repro.server, repro.core.ranking\n"
        "print(sorted(name for name in ('scipy', 'networkx') if name in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
