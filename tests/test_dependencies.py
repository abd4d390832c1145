import subprocess
import sys
from pathlib import Path

import zetamoments


def test_package_imports_without_scipy():
    # SciPy is a test oracle only: no module of the package may pull it in
    src = str(Path(zetamoments.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import zetamoments; "
            "from zetamoments import cli, campaign, moments, primes, zeros, zerosums, zetafn; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
