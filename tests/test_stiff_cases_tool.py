"""tools/stiff_cases.py runs a case and prints its JSON line.

The tool is loaded from its path and nothing is written next to it.  It
imports the library from --src, here the directory the tests import it
from."""

import importlib.util
import json
import os
import sys
from pathlib import Path

from dyadic_cascade import dynamics

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stiff_cases.py"
KEYS = {"case", "wall_s", "cpu_s", "us_per_attempt", "dp5_attempts", "rodas4_attempts",
        "accepted", "rejected", "stiff_from", "final_energy", "peak_mb"}


def test_chain_stiff_case_prints_its_attempts(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("stiff_cases", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    assert tool.main(["--src", src, "--case", "chain_stiff"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert set(row) == KEYS
    assert row["case"] == "chain_stiff"
    # the benchmark's chain: 1,710 accepted steps and 1 rejected, 296 of the
    # 1,711 attempts by RODAS4
    assert (row["accepted"], row["rejected"], row["rodas4_attempts"]) == (1710, 1, 296)
    assert row["dp5_attempts"] + row["rodas4_attempts"] == 1711
    assert row["us_per_attempt"] > 0.0 and row["peak_mb"] > 0.0
