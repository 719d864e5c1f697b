"""The package's import graph: NumPy is the only third-party runtime dependency."""

import subprocess
import sys


def test_importing_the_package_never_loads_scipy():
    # A fresh interpreter: this test process may already hold scipy (the KDE
    # parity test imports it as its reference).
    code = (
        "import sys; "
        "import repro, repro.api, repro.service, repro.harness.cli; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded[:5]"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
