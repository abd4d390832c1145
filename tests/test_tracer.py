"""The benchmark's tracer (perfbench/tracer.py) patches names in this package
by ``vars(module)[name]``; a boundary deleted or renamed here must fail in
this suite, not first in a traced benchmark run."""

import importlib.util
from pathlib import Path

import zetamoments
# install() reaches the modules as attributes of the package
from zetamoments import campaign, moments, zeros, zerosums, zetafn  # noqa: F401

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracer_mod) -> dict:
    names = {(mod, attr): vars(getattr(zetamoments, mod))[attr]
             for mod, attr, _, _ in tracer_mod.BOUNDARIES}
    names.update({(cls, attr): vars(getattr(zetafn, cls))[attr]
                  for cls, attr, _, _ in tracer_mod.METHODS})
    return names


def test_install_and_uninstall_on_the_package():
    tracer_mod = _tracer_module()
    before = _bound(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install(zetamoments)
    try:
        zeros.sweep(30.0)
    finally:
        tracer.uninstall()
    after = _bound(tracer_mod)
    assert all(after[key] is fn for key, fn in before.items())
    spans = {span[0] for span in tracer.spans}
    assert {"zetafn.hardy_z_grid", "zetafn.theta", "zetafn.em_z_with_deriv"} <= spans
