"""The benchmark's span tracer must keep finding every name it patches.

perfbench/tracing.py replaces library functions and methods by name; a
refactor that drops or renames one of them breaks
``perfbench/run.py --trace 1`` without failing any library test.  This test
loads the tracer read-only and runs a small surface energy under it.
"""

import importlib.util
from pathlib import Path

from wallscale import KernelCache, magnetostatics, sample_wall

from conftest import GOLDEN_CS, GOLDEN_L, GOLDEN_WALL

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_records_spans():
    tracing = load_tracing()
    p = sample_wall(GOLDEN_WALL, GOLDEN_L, 257)
    cache = KernelCache(GOLDEN_CS)
    original = magnetostatics.e_s_spectral
    tracer = tracing.Tracer()
    with tracer.patched():
        assert magnetostatics.e_s_spectral is not original
        traced = magnetostatics.e_s_spectral(p, GOLDEN_CS, cache=cache)
        magnetostatics.full_energy(p, GOLDEN_CS, cache=cache)
    assert magnetostatics.e_s_spectral is original
    assert traced == original(p, GOLDEN_CS)

    names = [tracer.name_of(i) for i in range(len(tracer))]
    e_s = [i for i, name in enumerate(names) if name == "magnetostatics.e_s_spectral"]
    assert len(e_s) == 2
    assert "magnetostatics.spectrum" in names
    assert "magnetostatics.full_energy" in names
    # the cold/warm split reads the cache keyword: only the first call is cold
    assert [tracer.span_attrs.get(i, {}).get("cold", 0) for i in e_s] == [1, 0]
    metrics = tracing.layer_metrics(tracer, [1.0])
    assert metrics["magnetostatics.e_s_spectral.calls"] == 2
