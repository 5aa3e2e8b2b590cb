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


def test_tiny_tree_wide_job_prints_its_peaks(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("peak_regions", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    wrapped = [Kernel.rhs, Kernel.rhs_work, Kernel.jvp, dynamics._dp5_error_norm]
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    assert tool.main(["--src", src, "--workload", "tree_wide", "--tiny"]) == 0
    assert [Kernel.rhs, Kernel.rhs_work, Kernel.jvp, dynamics._dp5_error_norm] == wrapped
    (line,) = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert set(row) == {"workload", "tiny", "n", "peak_mb", "peak_states", "region_states"}
    assert (row["workload"], row["tiny"], row["n"]) == ("tree_wide", True, 73)
    regions = row["region_states"]
    assert set(regions) == {"Kernel.rhs", "Kernel.rhs_work", "Kernel.jvp", "_dp5_error_norm"}
    # the job holds its 7 work arrays in every region, and no region's peak
    # is above the job's
    assert all(7.0 <= peak <= row["peak_states"] for peak in regions.values())
    assert row["peak_mb"] > 0.0
