"""Smoke test for scripts/calibrate.py, which no other test imports."""

import importlib.util
import math
from pathlib import Path

from qrperm import calibration

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    return calibrate


def test_erdos_turan_sweep_stays_under_pin():
    needed, worst_at = _load_script().erdos_turan_needed_c(32)
    assert 0 < needed <= calibration.ERDOS_TURAN_C
    assert "n=" in worst_at


def test_golden_ratio_table_stays_under_pin():
    rows = _load_script().golden_ratio_table()
    assert [n for n, _, _ in rows] == [2 ** e for e in range(6, 14)]
    for n, ratio, prefix in rows:
        assert 0 < ratio <= calibration.GOLDEN_RATIO_BOUND, n
        assert prefix > 0


def test_psi_scan_pins_reproduce_the_pinned_digest():
    lo, hi, digest = _load_script().psi_scan_pins(2)
    assert digest == calibration.PSI_SCAN_SHA256
    assert (calibration.PSI_MEAN_LN2_LO <= lo <= hi
            <= calibration.PSI_MEAN_LN2_HI)


def test_random_band_reads_the_pins(monkeypatch):
    monkeypatch.setattr(calibration, "RANDOM_BAND_LO_COEFF", 0.5)
    monkeypatch.setattr(calibration, "RANDOM_BAND_HI_COEFF", 2.0)
    lo, med, hi = _load_script().random_band_check()
    assert lo == 0.5 * 32
    assert hi == 2.0 * math.sqrt(1024 * math.log(1024))
    assert lo <= med <= hi
