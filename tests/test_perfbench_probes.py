"""The benchmark's layer probes must find every name they wrap.

``perfbench.tracing.layer_probes`` replaces functions by name in the
namespaces that call them, so a traced run raises ``KeyError`` as soon as
one of those names is no longer bound there.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import layer_probes  # noqa: E402


def test_every_layer_probe_target_is_bound():
    missing = [
        f"{getattr(probe.owner, '__name__', probe.owner)}.{probe.attr}"
        for probe in layer_probes()
        if probe.attr not in probe.owner.__dict__
    ]
    assert missing == []
