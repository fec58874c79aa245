from __future__ import annotations

import json

import pytest

from qident import cli, identities
from qident.cli import main
from qident.lpi import gap4_ideal


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_pools(monkeypatch) -> list[dict]:
    """Record the keyword arguments of every worker pool that verify_group builds."""
    from concurrent.futures import process

    pools = []

    class CountingPool(process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", CountingPool)
    return pools


class TestVerify:
    def test_single_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "quad", "--order", "20")
        assert code == 0
        assert "pass" in out and "quad" in out

    def test_unknown_id_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-id")
        assert code == 2
        assert "unknown identity" in err

    def test_empty_name_exit_two_before_any_work(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(identities.Entry, "run", lambda entry, order: ran.append(entry.id))
        code, out, err = run(capsys, "verify", "")
        assert (code, out, ran) == (2, "", [])
        assert err == "unknown identity ''; try 'qident list'\n"

    def test_negative_control_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "neg:quad")
        assert code == 1
        assert "witness" in out

    def test_json_lines_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "thm51", "--json", "--order", "12")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 4
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"id", "order", "passed", "witness", "elapsed_ms", "serial_fallback"}
            assert json.loads(json.dumps(doc)) == doc
            assert doc["passed"] is True

    def test_prefix_runs_group(self, capsys):
        code, out, _ = run(capsys, "verify", "rr", "--order", "20")
        assert code == 0
        assert out.count("pass") == 2

    def test_order_budget_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "lpi-eq-A", "--order", "999")
        assert code == 2
        assert "budget" in err

    def test_order_zero_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "rr1", "--order", "0")
        assert code == 2
        assert out == ""
        assert err.strip() == "order must be >= 1, got 0"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exit_two_before_any_work(self, capsys, monkeypatch, jobs):
        ran = []
        monkeypatch.setattr(identities.Entry, "run", lambda entry, order: ran.append(entry.id))
        for ident in ("thm51", "rr1"):
            code, out, err = run(capsys, "verify", ident, "--jobs", jobs)
            assert code == 2
            assert out == ""
            assert err == f"jobs must be >= 1, got {jobs}\n"
        assert ran == []

    def test_default_jobs_is_one_per_core(self, capsys, monkeypatch):
        pools = _count_pools(monkeypatch)
        monkeypatch.setattr(identities.os, "cpu_count", lambda: 2)
        code, out, _ = run(capsys, "verify", "thm51", "--order", "12")
        assert code == 0
        assert out.count("pass") == 4
        assert pools == [{"max_workers": 2}]

    def test_prefix_over_any_budget_exit_two_before_any_work(self, capsys, monkeypatch):
        # The Andrews-Gordon ladder allows a higher order than avee-split, which,
        # last in the group, must stop it first.
        budget = identities.REGISTRY["avee-split"].max_order
        others = [identities.REGISTRY[i].max_order for i in identities.registry_ids() if i[0] == "a" and i != "avee-split"]
        assert budget + 5 <= min(others)
        ran = []
        monkeypatch.setattr(identities.Entry, "run", lambda entry, order: ran.append(entry.id))
        for jobs in ((), ("--jobs", "1")):
            code, out, err = run(capsys, "verify", "a", "--order", str(budget + 5), *jobs)
            assert code == 2
            assert out == ""
            assert err == f"avee-split: order {budget + 5} exceeds the resource budget {budget}\n"
        assert ran == []

    def test_prefix_over_every_thm_budget_names_the_first_entry(self, capsys, monkeypatch):
        # Every thm* entry allows at least 95; thm51-a, first in the group, stops order 105.
        ran = []
        monkeypatch.setattr(identities.Entry, "run", lambda entry, order: ran.append(entry.id))
        code, out, err = run(capsys, "verify", "thm", "--order", "105")
        assert code == 2
        assert out == ""
        assert err == "thm51-a: order 105 exceeds the resource budget 95\n"
        assert ran == []

    def test_prefix_honours_jobs(self, capsys, monkeypatch):
        pools = _count_pools(monkeypatch)
        reports = {}
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "verify", "thm51", "--json", "--jobs", jobs)
            assert code == 0
            docs = [json.loads(line) for line in out.splitlines()]
            reports[jobs] = [{k: v for k, v in d.items() if k != "elapsed_ms"} for d in docs]
        assert [d["id"] for d in reports["1"]] == ["thm51-a", "thm51-b", "thm51-c", "thm51-d"]
        assert reports["1"] == reports["2"]
        assert pools == [{"max_workers": 2}]

    def test_all_json_one_object_per_line(self, capsys):
        # a low shared order keeps every entry quick
        code, out, _ = run(capsys, "verify", "all", "--json", "--order", "12", "--jobs", "1")
        assert code == 0
        lines = out.splitlines()
        docs = [json.loads(line) for line in lines]
        assert len(docs) == 31
        assert all(doc["passed"] for doc in docs)
        assert not any(doc["id"].startswith("neg:") for doc in docs)

    def test_witnesses_do_not_depend_on_jobs(self, capsys):
        reports = {}
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "verify", "neg:", "--json", "--jobs", jobs)
            assert code == 1
            docs = [json.loads(line) for line in out.splitlines()]
            reports[jobs] = [{k: v for k, v in d.items() if k != "elapsed_ms"} for d in docs]
        assert [d["id"] for d in reports["1"]] == ["neg:rr1", "neg:quad", "neg:avee-split"]
        assert all(not d["passed"] and d["witness"] for d in reports["1"])
        assert reports["1"] == reports["2"]


class TestEnum:
    def test_avee_six_contains_exception_line(self, capsys):
        code, out, _ = run(capsys, "enum", "--set", "Avee", "--n", "6")
        assert code == 0
        assert "5~ 1" in out.splitlines()

    def test_empty_partition_renders_empty_line(self, capsys):
        code, out, _ = run(capsys, "enum", "--set", "A", "--n", "0")
        assert code == 0
        assert out == "\n"

    def test_empty_partition_json(self, capsys):
        code, out, _ = run(capsys, "enum", "--set", "A", "--n", "0", "--json")
        assert code == 0
        assert json.loads(out) == {"parts": []}

    def test_stats_columns(self, capsys):
        code, out, _ = run(capsys, "enum", "--set", "A", "--n", "5", "--stats")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "parts\tsize\tlength\tr2mod4\tr0mod4\tover"
        assert "5~\t5\t1\t0\t0\t1" in rows

    def test_stats_json_lines(self, capsys):
        code, out, _ = run(capsys, "enum", "--set", "A", "--n", "5", "--json", "--stats")
        assert code == 0
        assert out == (
            '{"parts": [{"value": 5, "overlined": false}], "size": 5, "length": 1,'
            ' "r1mod2": 1, "r2mod4": 0, "r0mod4": 0, "over": 0}\n'
            '{"parts": [{"value": 5, "overlined": true}], "size": 5, "length": 1,'
            ' "r1mod2": 1, "r2mod4": 0, "r0mod4": 0, "over": 1}\n'
        )

    def test_bad_set_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enum", "--set", "nope", "--n", "3")
        assert exc.value.code == 2

    @staticmethod
    def _record_enumeration(monkeypatch) -> list:
        called = []
        monkeypatch.setattr(cli, "enum_set", lambda setid, n: called.append(n) or [])
        monkeypatch.setattr(cli, "language", lambda spec, n: called.append(n) or [])
        return called

    def test_missing_set_and_ideal(self, capsys, monkeypatch):
        called = self._record_enumeration(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enum", "--n", "3")
        assert exc.value.code == 2
        assert "--set" in capsys.readouterr().err
        assert called == []

    def test_set_and_ideal_together_exit_two(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        called = self._record_enumeration(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enum", "--set", "A", "--lpi-spec", str(path), "--n", "3")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert called == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "3"), "qident enum: one of the arguments --set --lpi-spec is required"),
            (("--set", "nope", "--n", "3"), "qident enum: argument --set: invalid choice: 'nope'"),
            (("--set", "A"), "qident enum: the following arguments are required: --n"),
            (("--set", "A", "--lpi-spec", "ideal.json", "--n", "3"),
             "qident enum: argument --lpi-spec: not allowed with argument --set"),
        ],
    )
    def test_usage_error_is_one_stderr_line(self, capsys, monkeypatch, argv, message):
        called = self._record_enumeration(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enum", *argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and called == []
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(message) and captured.err.endswith("\n")

    def test_ideal_route_matches_set_route(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        code, by_ideal, _ = run(capsys, "enum", "--lpi-spec", str(path), "--n", "14")
        assert code == 0
        code, by_set, _ = run(capsys, "enum", "--set", "A", "--n", "14")
        assert code == 0
        assert by_ideal == by_set and len(by_set.splitlines()) > 1

    def test_custom_ideal(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "enum", "--lpi-spec", str(path), "--n", "5")
        assert code == 0
        assert set(out.splitlines()) == {"5", "5~"}

    def test_negative_n_with_set_exit_two(self, capsys):
        code, out, err = run(capsys, "enum", "--set", "A", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "n must be >= 0, got -1\n"

    def test_negative_n_with_ideal_exit_two(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        code, out, err = run(capsys, "enum", "--lpi-spec", str(path), "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "n must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "args, budget, name",
        [
            (("--set", "A"), identities._WALK_BUDGET, "the gap-4 walk"),
            (("--set", "Avee"), identities._WALK_BUDGET, "the gap-4 walk"),
            (("--lpi-spec", "ideal.json"), identities._PARAMETRIC_SERIES_BUDGET, "f<k>/g<k>"),
        ],
    )
    def test_size_over_budget_exit_two_before_any_work(self, capsys, monkeypatch, tmp_path, args, budget, name):
        (tmp_path / "ideal.json").write_text(gap4_ideal().to_json(), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        called = self._record_enumeration(monkeypatch)
        code, out, err = run(capsys, "enum", *args, "--n", str(budget))
        assert (code, out, err, called) == (0, "", "", [budget])
        code, out, err = run(capsys, "enum", *args, "--n", str(budget + 1))
        assert code == 2
        assert out == ""
        assert err == f"enum: n {budget + 1} exceeds the resource budget {budget} of {name}\n"
        assert called == [budget]

    def test_bad_ideal_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "enum", "--lpi-spec", str(path), "--n", "3")
        assert code == 2
        assert "cannot load ideal" in err


class TestCoeffs:
    def test_csv_header_and_xq_row(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--series", "quad-lhs", "--order", "6", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,x,y,coeff"
        assert "1,1,0,1" in lines
        # rows sorted lexicographically by exponent vector
        body = [tuple(int(v) for v in line.split(",")[:-1]) for line in lines[1:]]
        assert body == sorted(body)

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--series", "h:1,1,2,4", "--order", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vars"] == ["q", "x", "y1", "y2", "z"]
        terms = {tuple(t["exponents"]): t["coeff"] for t in doc["terms"]}
        assert terms[(0, 0, 0, 0, 0)] == 1
        assert terms[(1, 1, 0, 0, 0)] == 1

    def test_unknown_series_exit_two(self, capsys):
        code, _, err = run(capsys, "coeffs", "--series", "nope", "--order", "5")
        assert code == 2
        assert "unknown series" in err

    def test_short_beta_exit_two(self, capsys):
        code, out, err = run(capsys, "coeffs", "--series", "h:1,1", "--order", "5")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "must have length 4" in err

    def test_negative_order_exit_two(self, capsys):
        code, out, err = run(capsys, "coeffs", "--series", "rr1-lhs", "--order", "-1")
        assert code == 2
        assert out == ""
        assert err.strip() == "order must be >= 0, got -1"

    @pytest.mark.parametrize(
        "series, budget, builder",
        [
            ("gf-A", identities.REGISTRY["thm51-a"].max_order, "weighted_gf"),
            ("f3", identities._PARAMETRIC_SERIES_BUDGET, "Automaton"),
            ("g7", identities._PARAMETRIC_SERIES_BUDGET, "Automaton"),
            ("h:1,1,2,4", identities._PARAMETRIC_SERIES_BUDGET, "eval_sum"),
        ],
    )
    def test_order_over_budget_exit_two_before_any_work(self, capsys, monkeypatch, series, budget, builder):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{builder} called for an order over budget")

        monkeypatch.setattr(identities, builder, refuse)
        order = str(budget + 1)
        code, out, err = run(capsys, "coeffs", "--series", series, "--order", order)
        assert code == 2
        assert out == ""
        assert err == f"{series}: order {order} exceeds the resource budget {budget}\n"

    def test_f_series_with_custom_ideal(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        code, out, _ = run(
            capsys, "coeffs", "--series", "f1", "--order", "4", "--format", "csv",
            "--lpi-spec", str(path),
        )
        assert code == 0
        assert out.splitlines()[0] == "q,x,y1,y2,z,coeff"

    @pytest.mark.parametrize("series", ["rr1-lhs", "gf-A", "h:1,1,2,4", "nope"])
    def test_custom_ideal_with_a_series_it_does_not_back_exit_two(self, capsys, tmp_path, series):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--series", series, "--order", "3", "--lpi-spec", str(path))
        assert (code, out) == (2, "")
        assert err == f"a custom ideal backs only the f<k> and g<k> series, not {series!r}\n"

    def test_custom_ideal_lists_only_its_f_and_g_series(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(gap4_ideal().to_json(), encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--series", "f8", "--order", "3", "--lpi-spec", str(path))
        assert (code, out) == (2, "")
        known = ", ".join([f"f{k}" for k in range(1, 8)] + [f"g{k}" for k in range(1, 8)])
        assert err == f"unknown series 'f8'; known: {known}\n"

    def test_non_integer_part_in_ideal_exit_two(self, capsys, tmp_path):
        doc = json.loads(gap4_ideal().to_json())
        doc["blocks"][1][0]["value"] = 1.5
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--series", "f1", "--order", "4", "--lpi-spec", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("cannot load ideal: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-100000-deep"],
)
@pytest.mark.parametrize(
    "command",
    [("coeffs", "--series", "f1", "--order", "5"), ("enum", "--n", "3")],
    ids=["coeffs", "enum"],
)
def test_unreadable_ideal_file_exit_two_with_one_line(capsys, tmp_path, command, content):
    path = tmp_path / "ideal.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *command, "--lpi-spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load ideal: ") and err.count("\n") == 1


class TestList:
    def test_ids_listed(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "rr1" in out and "h-matrix" in out and "thm51-a" in out
        assert "neg:" not in out

    def test_all_includes_negatives(self, capsys):
        code, out, _ = run(capsys, "list", "--all")
        assert code == 0
        assert "neg:quad" in out

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "list", "--json")
        assert code == 0
        for line in out.splitlines():
            doc = json.loads(line)
            assert {"id", "default_order", "description"} == set(doc)


def test_main_builds_one_parser_and_a_usage_error_leaves_it_correct(capsys, monkeypatch):
    # The parser is built on the first call, not at import, and every later
    # call reuses it, also after one that it refused.
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        first = run(capsys, "verify", "thm51-a", "--order", "12", "--json")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "thm51-a", "--order", "twelve")
        assert exc.value.code == 2
        assert "invalid int value: 'twelve'" in capsys.readouterr().err
        again = run(capsys, "verify", "thm51-a", "--order", "12", "--json")
        assert [code for code, *_ in (first, again)] == [0, 0]
        assert [json.loads(out)["order"] for _, out, _ in (first, again)] == [12, 12]
        assert built == [1]
    finally:
        cli._parser.cache_clear()
