"""The benchmark's tracer (perfbench/layers.py) patches postrig's layer
boundaries by name: every patched attribute must exist, and uninstalling
the tracer must put each one back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402


def test_tracer_patches_and_restores_every_layer_attribute():
    tracer = layers.Tracer()
    try:
        tracer.install()  # getattr of a missing name raises here
        patched = list(tracer._saved)
        assert len(patched) == 31
        assert len({(id(owner), attr) for owner, attr, _ in patched}) == 31
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in patched)
