import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import techsub
from techsub.ingest import CSV_HEADER, TimeSeries

SRC = str(Path(techsub.__file__).resolve().parent.parent)


def make_series(points, name="series", unit=""):
    return TimeSeries(name=name, unit=unit, points=tuple(points))


def check_record(cls, **fields):
    """A public result record is immutable and compares and hashes by
    value: two records built from equal keyword fields are equal, hash
    alike, and refuse assignment to a field or to a new attribute."""
    a, b = cls(**fields), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert a is not b
    for name, value in fields.items():
        assert getattr(a, name) == value
    for name in [*fields, "extra_attribute"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    return a


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's techsub."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env,
        timeout=120,
    )


def write_csv(path: Path, points) -> Path:
    lines = [CSV_HEADER] + [f"{y},{v!r}" for y, v in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_manifest(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    from techsub.cli import main

    def run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
