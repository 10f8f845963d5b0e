"""Guards on the package surface: the public names, and the attributes the
benchmark's tracer (perfbench/tracing.py) patches in place, so a cleanup
that deletes one of them fails here and not only in the benchmark."""

import importlib.util
import pathlib

import landersim

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_public_names_resolve_sorted_and_unique():
    names = landersim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(landersim, name), name


def test_traced_boundaries_exist_and_are_restored():
    tracing = _tracing()
    for owner, attr, _ in tracing.BOUNDARIES:
        assert attr in owner.__dict__, (owner.__name__, attr)
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    with tracing.Tracer():
        during = [owner.__dict__[attr]
                  for owner, attr, _ in tracing.BOUNDARIES]
        assert not any(d is b for d, b in zip(during, before))
    after = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    assert all(a is b for a, b in zip(after, before))
