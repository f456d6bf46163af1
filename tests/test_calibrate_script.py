"""Smoke test for scripts/calibrate.py, which no other test imports."""

import importlib.util
from pathlib import Path

from qrperm import calibration

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"


def test_erdos_turan_sweep_stays_under_pin():
    spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    needed, worst_at = calibrate.erdos_turan_needed_c(32)
    assert 0 < needed <= calibration.ERDOS_TURAN_C
    assert "n=" in worst_at
