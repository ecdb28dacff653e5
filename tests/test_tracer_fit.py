"""The benchmark's tracer (overheadbench/tracing.py) patches named functions
and methods of the package; a rename here must fail this suite rather than
the next traced benchmark run."""

from pathlib import Path

OVERHEADBENCH = Path(__file__).resolve().parent.parent / "overheadbench"


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(OVERHEADBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
