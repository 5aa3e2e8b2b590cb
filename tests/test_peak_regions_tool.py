"""tools/peak_regions.py prints the traced peaks of a workload's job.

The tool is loaded from its path and nothing is written next to it.  It
imports the library from --src, here the directory the tests import it
from, and puts back what it wrapped."""

import importlib.util
import json
import os
import sys
from pathlib import Path

from dyadic_cascade import dynamics
from dyadic_cascade.kernels import Kernel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_regions.py"
REGIONS = {"Kernel.rhs", "Kernel.rhs_work", "Kernel.jvp", "_Dp5.error_norm"}


def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("peak_regions", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run_tiny_tree_wide(tool, capsys):
    """The tool's JSON line for the tiny tree_wide job; nothing it wrapped
    is left wrapped."""
    wrapped = [Kernel.rhs, Kernel.rhs_work, Kernel.jvp, dynamics._Dp5.error_norm]
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    assert tool.main(["--src", src, "--workload", "tree_wide", "--tiny"]) == 0
    assert [Kernel.rhs, Kernel.rhs_work, Kernel.jvp, dynamics._Dp5.error_norm] == wrapped
    (line,) = capsys.readouterr().out.splitlines()
    return json.loads(line)


def test_tiny_tree_wide_job_prints_its_peaks(monkeypatch, capsys):
    row = run_tiny_tree_wide(load_tool(monkeypatch), capsys)
    assert set(row) == {"workload", "tiny", "n", "peak_mb", "peak_states", "region_states",
                        "absent"}
    assert (row["workload"], row["tiny"], row["n"]) == ("tree_wide", True, 73)
    regions = row["region_states"]
    assert set(regions) == REGIONS and row["absent"] == []
    # the job holds its 7 work arrays in every region, and no region's peak
    # is above the job's
    assert all(7.0 <= peak <= row["peak_states"] for peak in regions.values())
    assert row["peak_mb"] > 0.0


def test_a_region_the_library_lacks_is_absent(monkeypatch, capsys):
    # the norm's name before it moved into _Dp5, as an older checkout has it,
    # and a class that no checkout has: both absent, the others measured
    tool = load_tool(monkeypatch)
    monkeypatch.setattr(tool, "REGIONS", tool.REGIONS + (
        ("dynamics", "_dp5_error_norm"), ("dynamics", "_Stepper.attempt")))
    row = run_tiny_tree_wide(tool, capsys)
    assert row["absent"] == ["_dp5_error_norm", "_Stepper.attempt"]
    assert set(row["region_states"]) == REGIONS
    assert all(7.0 <= peak <= row["peak_states"] for peak in row["region_states"].values())
