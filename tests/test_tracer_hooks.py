"""The benchmark tracer attaches to quatpoly and restores it.

``bench/tracing.py`` reads every method it wraps from its class's own
``__dict__``, so a traced method that moves into a base class breaks
``install``.  This checks the attachment points without a benchmark run.
"""

import importlib
from pathlib import Path

import quatpoly

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install(quatpoly)
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    originals = {}
    for owner, attr, original in patches:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"
