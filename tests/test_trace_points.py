"""The benchmark's tracer (perfbench/tracing.py) rebinds package functions
and methods by name and reads cache sites.  A refactor that renames
or moves one of them breaks the traced benchmark run, so each name is
checked here against the package as it is."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    operations = _tracing()._operations()
    assert operations
    for op, owner, attr, _hook in operations:
        assert attr in vars(owner), f"{op}: {owner.__name__} has no {attr}"


def test_layer_metrics_cache_sites_exist():
    tracing = _tracing()
    tracing._operations()    # imports every traced module
    sites = tracing.cache_sites()
    for name in ("commacat.linalg.rref", "commacat.comma._comma_hom_basis",
                 "commacat.cocomma._cocomma_hom_basis",
                 # cleared before every pass, so that no pass starts warm
                 "commacat.comma._glued_kernel",
                 "commacat.comma._glued_cokernel",
                 "commacat.functors.apply_on_morphism",
                 "commacat.stability.shared_classes"):
        assert name in sites
