"""The scale tiers' harness, `scale/tier.py`: what every case's line holds."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("tier", ROOT / "scale" / "tier.py")
tier = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier)


def test_a_field_timed_twice_holds_the_sum(monkeypatch, tmp_path):
    monkeypatch.setattr(tier, "perf_counter", iter([1.0, 3.0, 10.0, 13.5]).__next__)
    probe = tier.Probe(ROOT / "src", tmp_path)
    assert probe.time("files_s", str.upper, "a") == "A"
    assert probe.time("files_s", str.lower, "B") == "b"
    assert probe.fields()["files_s"] == 5.5


def test_a_command_that_exits_1_raises_naming_the_command(tmp_path, capsys):
    probe = tier.Probe(ROOT / "src", tmp_path)
    missing = tmp_path / "missing.vocab"
    with pytest.raises(RuntimeError, match=r"xfervocab apply-wp --vocab \S+missing\.vocab .* exited 1"):
        probe.run("apply_s", "apply-wp", "--vocab", missing, "--input", missing, "--out", tmp_path / "out.wp")
    assert "missing.vocab" in capsys.readouterr().err


TINY_SCRIPT = '''"""A one-case tier."""
import sys
sys.path.insert(0, {scale!r})
import tier


def measure(case, probe):
    probe.start()
    import xfervocab
    probe.hash("some text")
    return {{"own": case.upper(), "package": xfervocab.NAME}}


sys.exit(tier.main(sys.argv[1:], __file__, __doc__, ("tiny",), measure))
'''


def test_a_child_line_holds_the_shared_fields_and_the_script_s_own(tmp_path):
    """The child imports the package from --src, ahead of any other copy."""
    package = tmp_path / "src" / "xfervocab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('NAME = "stand-in"\n', encoding="utf-8")
    script = tmp_path / "tiny.py"
    script.write_text(TINY_SCRIPT.format(scale=str(ROOT / "scale")), encoding="utf-8")
    run = subprocess.run([sys.executable, str(script), "--child", "--src", str(tmp_path / "src"), "tiny"],
                         capture_output=True, text=True, check=True)
    line = json.loads(run.stdout)
    assert set(line) == {"case", "corpus_maxrss_mb", "maxrss_mb", "src", "own", "package", "digest"}
    assert line["case"] == "tiny" and line["own"] == "TINY" and line["package"] == "stand-in"
    assert line["src"] == str((tmp_path / "src").resolve())
    assert 0 < line["corpus_maxrss_mb"] <= line["maxrss_mb"]
    assert line["digest"] == hashlib.sha256(b"some text").hexdigest()
