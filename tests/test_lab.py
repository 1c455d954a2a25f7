import json
import math
import struct

import pytest

from wallscale import CrossSection, corollary33_report, emit_report, rate_sweep
from wallscale.lab import SweepRecord, plot_companion_path, read_report_json
from wallscale.magnetostatics import GAMMA_LIMIT


def make_records() -> list[SweepRecord]:
    return rate_sweep([CrossSection(l=1e-3, d=1e-5), CrossSection(l=1e-3, d=1e-7)])


class TestRateSweep:
    def test_records_fields_and_consistency(self):
        records = make_records()
        assert len(records) == 2
        for r in records:
            assert r.gamma_limit == GAMMA_LIMIT
            assert r.gap == pytest.approx(r.rescaled_min_upper - GAMMA_LIMIT, abs=1e-12)
            assert r.rate_rhs == pytest.approx(
                200.0 / math.sqrt(abs(math.log(r.c))) + 20.0 * r.l
            )
            assert r.lam * r.mu == pytest.approx(r.l * r.d, rel=1e-15, abs=0.0)
            assert r.passed
        assert records[0].gap > records[1].gap

    def test_vacuous_bound_flagged_in_loose_regime(self):
        records = rate_sweep([CrossSection(l=0.5, d=0.25)])
        (r,) = records
        assert r.rate_rhs > GAMMA_LIMIT
        assert r.vacuous_bound
        assert r.passed

    def test_empty_case_list(self):
        assert rate_sweep([]) == []

    def test_determinism(self):
        a = rate_sweep([CrossSection(l=1e-3, d=1e-6)])
        b = rate_sweep([CrossSection(l=1e-3, d=1e-6)])
        assert a == b

    def test_n_nodes_accepted_and_ignored(self):
        cases = [CrossSection(l=1e-3, d=1e-5), CrossSection(l=1e-3, d=1e-9)]
        plain = rate_sweep(cases)
        for n_nodes in (4097, 257):
            bits = [struct.pack("11d", *r.as_row()) for r in rate_sweep(cases, n_nodes=n_nodes)]
            assert bits == [struct.pack("11d", *r.as_row()) for r in plain]

    @pytest.mark.parametrize("c", [1e-155, 1e-160, 1e-214])
    def test_case_below_double_range_is_a_nan_row(self, c):
        # mu = l d / lambda leaves the normal double range near c = 1e-153 at l = 1e-40
        (r,) = rate_sweep([CrossSection(l=1e-40, d=c * 1e-40)])
        assert math.isnan(r.rescaled_min_upper) and math.isnan(r.gap)
        assert not r.passed

    def test_double_range_ends_between_c_1e_201_and_1e_203_at_l_1e_3(self):
        inside, below = rate_sweep([CrossSection(l=1e-3, d=1e-204), CrossSection(l=1e-3, d=1e-206)])
        assert inside.passed and math.isfinite(inside.rescaled_min_upper)
        assert math.isnan(below.rescaled_min_upper) and not below.passed

    def test_typed_failure_logged_without_traceback(self, caplog):
        (r,) = rate_sweep([CrossSection(l=1e-3, d=1e-217)])
        assert math.isnan(r.rescaled_min_upper)
        assert [(rec.levelname, bool(rec.exc_info)) for rec in caplog.records] == [("ERROR", False)]

    def test_failed_case_recorded_and_sweep_continues(self, monkeypatch):
        import wallscale.lab as lab_module

        real = lab_module.minimize_full_ansatz
        bad = CrossSection(l=1e-3, d=1e-5)

        def flaky(cs, **kwargs):
            if cs is bad:
                raise RuntimeError("synthetic failure")
            return real(cs, **kwargs)

        monkeypatch.setattr(lab_module, "minimize_full_ansatz", flaky)
        records = lab_module.rate_sweep([bad, CrossSection(l=1e-3, d=1e-6)])
        assert len(records) == 2
        assert math.isnan(records[0].rescaled_min_upper) and not records[0].passed
        assert records[1].passed


class TestCorollaryReport:
    def test_rows_and_trend(self):
        report = corollary33_report([1e-4, 1e-8, 1e-12])
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.in_bracket
            assert row.bracket_low <= row.ratio <= row.bracket_high
        assert report.deviations_decreasing

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            corollary33_report([2.0])


class TestEmit:
    def test_csv_rows_and_header(self, tmp_path):
        records = make_records()
        out = tmp_path / "sweep.csv"
        emit_report(records, "csv", out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "l,d,c,lambda,mu,rescaled_min_upper,gamma_limit,gap,rate_rhs,pass,vacuous_bound"
        )
        assert len(lines) == 3

    def test_empty_csv_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_report([], "csv", out)
        assert out.read_text().strip() == (
            "l,d,c,lambda,mu,rescaled_min_upper,gamma_limit,gap,rate_rhs,pass,vacuous_bound"
        )

    def test_json_round_trip(self, tmp_path):
        records = make_records()
        out = tmp_path / "sweep.json"
        emit_report(records, "json", out)
        assert read_report_json(out) == records
        payload = json.loads(out.read_text())
        assert payload[0]["pass"] is True
        assert "lambda" in payload[0]

    def test_json_nan_row_is_strict_json_and_round_trips_bitwise(self, tmp_path):
        # mu leaves the normal range at c = 1e-210: a NaN row, which json.dumps
        # wrote as the bare token NaN that a strict parser refuses
        records = rate_sweep([CrossSection(l=1e-3, d=1e-3 * 1e-210), CrossSection(l=1e-3, d=1e-5)])
        assert math.isnan(records[0].mu) and not records[0].passed
        out = tmp_path / "sweep.json"
        emit_report(records, "json", out)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload[0]["mu"] is None and payload[0]["rescaled_min_upper"] is None
        assert payload[1]["mu"] == records[1].mu
        back = read_report_json(out)
        assert [struct.pack("11d", *r.as_row()) for r in back] == [struct.pack("11d", *r.as_row()) for r in records]

    def test_json_inf_row_is_strict_json_and_round_trips_bitwise(self, tmp_path):
        # 20 l overflows the rate bound at l = 1e307: json.dumps wrote inf as
        # null, which read back as NaN
        records = rate_sweep([CrossSection(l=1e307, d=1e305)])
        assert records[0].rate_rhs == math.inf
        out = tmp_path / "sweep.json"
        emit_report(records, "json", out)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload[0]["rate_rhs"] == "inf" and payload[0]["mu"] is None
        back = read_report_json(out)
        assert [struct.pack("11d", *r.as_row()) for r in back] == [struct.pack("11d", *r.as_row()) for r in records]

    def test_plot_companion(self, tmp_path):
        records = make_records()
        out = tmp_path / "sweep.csv"
        emit_report(records, "csv", out)
        companion = plot_companion_path(out)
        assert companion.exists()
        rows = companion.read_text().strip().splitlines()
        assert len(rows) == len(records)
        first = rows[0].split()
        assert len(first) == 3
        assert float(first[0]) == pytest.approx(abs(math.log(records[0].c)))
        assert float(first[1]) == records[0].gap
        assert float(first[2]) == records[0].rate_rhs

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "x.xml")
