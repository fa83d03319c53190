"""The benchmark tracer finds every function it wraps under the name it expects.

``perfbench/spans.py`` swaps module globals by name, e.g.
``ordreg.harness.train_one``, ``ordreg.cli.run_cv`` and each module's
``losses_mod``. Renaming or deleting one of them would otherwise show only
in a traced benchmark run; one traced round here fails at once.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_round_wraps_every_site_and_puts_it_back():
    spans = _load_spans()
    sites = [(importlib.import_module(module), attr) for module, attr, *_ in spans._SITES]
    sites += [(importlib.import_module(module), "losses_mod") for module in spans._LOSS_CALLERS]
    before = [getattr(module, attr) for module, attr in sites]
    with spans.Tracer().round_traced(0):
        during = [getattr(module, attr) for module, attr in sites]
    assert not any(a is b for a, b in zip(before, during))
    assert all(getattr(module, attr) is a for (module, attr), a in zip(sites, before))
