import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from privtext.cli import main

TOY = "v 0 0\nw 8 0\nx 0 8\ny 8 8\nz 4 4\n"

# each real-number field of a pipeline config, set to a given value
REAL_FIELDS = {
    "epsilon": lambda v: {"mechanism": {"variant": "baseline", "epsilon": v}},
    "sigma": lambda v: {"mechanism": {"variant": "density", "epsilon": 1.0, "sigma": v}},
    "beta": lambda v: {"mechanism": {"variant": "smooth", "epsilon": 1.0, "beta": v}},
    "tau": lambda v: {"mechanism": {"variant": "trunc_distance", "epsilon": 1.0, "tau": v}},
    "q": lambda v: {"amplifiers": [{"kind": "subsample", "q": v}]},
    "s": lambda v: {"corpus": {"kind": "zipf", "s": v}},
}


@pytest.fixture
def emb(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text(TOY, encoding="utf-8")
    return str(path)


def run(args, stdin=None, monkeypatch=None, capsys=None):
    """cli.main on argv args, with stdin given as text (sent as UTF-8) or as
    bytes. The stream has bytes under it, as a pipe's or a terminal's, and a
    text layer as lax as Python's own stdin under the POSIX locale, which
    keeps an undecodable byte as a lone surrogate."""
    if stdin is not None:
        data = stdin if isinstance(stdin, bytes) else stdin.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                          errors="surrogateescape"))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _non_finite(name):
    raise ValueError(f"{name} in a report: not JSON")


def parse_report(text):
    """A JSON report parsed strictly: json.dumps writes NaN and +-Infinity
    for non-finite floats, and they are an error here, as in any strict
    JSON reader."""
    return json.loads(text, parse_constant=_non_finite)


class TestPerturb:
    def test_high_epsilon_roundtrip(self, emb, monkeypatch, capsys):
        code, out, _ = run(
            ["--embeddings", emb, "perturb", "--mechanism", "baseline", "--epsilon", "1000"],
            stdin="v w\nx y z\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == "v w\nx y z\n"

    def test_empty_input(self, emb, monkeypatch, capsys):
        code, out, _ = run(
            ["--embeddings", emb, "perturb", "--epsilon", "1"],
            stdin="",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == ""

    def test_mh_step_flag_is_ignored_with_one_warning(self, emb, tmp_path, monkeypatch, capsys):
        # the density chain has no proposal step: the flag changes no draw,
        # and a pipeline config that names it exits 2
        argv = ["--embeddings", emb, "--seed", "4", "perturb", "--mechanism", "density",
                "--epsilon", "1"]
        plain = run(argv, stdin="v w z\n", monkeypatch=monkeypatch, capsys=capsys)
        code, out, err = run(
            argv + ["--mh-step", "0.3"], stdin="v w z\n", monkeypatch=monkeypatch, capsys=capsys
        )
        assert plain[0] == code == 0 and plain[2] == "" and out == plain[1]
        assert len(err.splitlines()) == 1 and "--mh-step has no effect" in err
        path = tmp_path / "lac.json"
        path.write_text(json.dumps({"n_users": 2, "m_per_user": 1, "mechanism": {
            "variant": "density", "epsilon": 1, "mh_step": 0.3}}), encoding="utf-8")
        code, out, err = run(["--embeddings", emb, "pipeline", "--config", str(path)],
                             capsys=capsys)
        assert code == 2 and out == "" and "mh_step" in err and "Traceback" not in err

    def test_oov_token_exit_2(self, emb, monkeypatch, capsys):
        code, _, err = run(
            ["--embeddings", emb, "perturb", "--epsilon", "1"],
            stdin="v zzz\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 2
        assert "zzz" in err and "line 1" in err

    def test_skip_oov_passthrough(self, emb, monkeypatch, capsys):
        code, out, _ = run(
            ["--embeddings", emb, "perturb", "--epsilon", "1000", "--skip-oov"],
            stdin="zzz v\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == "zzz v\n"

    @pytest.mark.parametrize("header", ["", "5 2\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, capsys, header):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + (header + TOY).encode("utf-8"))
        code, out, err = run(["--embeddings", str(path), "perturb", "--epsilon", "1000"],
                             stdin="v w\n", monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out, err) == (0, "v w\n", "")

    def test_deterministic_given_seed(self, emb, monkeypatch, capsys):
        args = ["--embeddings", emb, "--seed", "3", "perturb", "--epsilon", "0.2"]
        outs = []
        for _ in range(2):
            code, out, _ = run(args, stdin="v w x\n", monkeypatch=monkeypatch, capsys=capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestMatrix:
    def test_rows_sum_to_one(self, emb, tmp_path, capsys):
        out_file = tmp_path / "m.tsv"
        code, _, _ = run(
            [
                "--embeddings", emb, "--quiet", "--out", str(out_file),
                "matrix", "--mechanism", "baseline", "--epsilon", "2", "--samples", "1000",
            ],
            capsys=capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "#privtext-matrix-v2"
        sums = {}
        for line in lines[1:]:
            w, _, count = line.split("\t")
            sums[w] = sums.get(w, 0) + int(count)
        assert sums == dict.fromkeys("vwxyz", 1000)


class TestSensitivity:
    def test_beta_zero_constant_smooth(self, emb, capsys):
        code, out, _ = run(
            ["--embeddings", emb, "sensitivity", "--beta", "0"], capsys=capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        glob = float(lines[-1].split()[1])
        smooth = [float(l.split("\t")[2]) for l in lines[1:-1]]
        assert all(abs(s - glob) < 1e-9 for s in smooth)


class TestVerifyAndAttack:
    @pytest.fixture
    def matrix_file(self, emb, tmp_path, capsys):
        out_file = tmp_path / "m.tsv"
        code, _, _ = run(
            [
                "--embeddings", emb, "--quiet", "--out", str(out_file),
                "matrix", "--epsilon", "0.5", "--samples", "20000",
            ],
            capsys=capsys,
        )
        assert code == 0
        return str(out_file)

    def test_verify_dp(self, emb, matrix_file, capsys):
        code, out, _ = run(
            ["--embeddings", emb, "verify-dp", "--matrix", matrix_file, "--epsilon", "0.5"],
            capsys=capsys,
        )
        assert code == 0
        payload = parse_report(out)
        assert payload["satisfied"] is True

    def test_attack(self, emb, matrix_file, capsys):
        code, out, _ = run(
            ["--embeddings", emb, "attack", "--matrix", matrix_file, "--trials", "2000"],
            capsys=capsys,
        )
        assert code == 0
        payload = parse_report(out)
        assert 0.0 <= payload["accuracy"] <= 1.0


class TestAuditReportsPinned:
    """The verify-dp and attack reports of a seeded matrix -> verify-dp ->
    attack run, metadata dropped, pinned by their digests: a change to the
    matrix's draws, the verifier or the attack changes a digest. With 200
    samples every c/200 is a short decimal, so a file of probabilities
    rounded to 12 digits gave these digests too."""

    CASES = {
        "baseline": (["--epsilon", "2"],
                     "8ebc3aa37e3f86eb74113d81f289f14873c555558d06632499b28a43312440d1",
                     "0739958e476571b20f09293b5bab06874de54472e8ca7386a9582351b1dbedc7"),
        "smooth": (["--mechanism", "smooth", "--epsilon", "2", "--beta", "0.5"],
                   "ae07b5153471b18a0bf3c4db8fe2c75cb47ca1335dc7e80a2ea1131f762927bb",
                   "2de3a4e33a8030b83063b9265a123e4186bf07a2be3903f353c23a5bb05208ce"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_digests(self, tmp_path, capsys, case):
        import hashlib

        flags, verify_digest, attack_digest = self.CASES[case]
        vectors = np.random.default_rng(11).normal(scale=2.0, size=(30, 3))
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"w{i} " + " ".join(map(repr, v)) + "\n"
                               for i, v in enumerate(vectors.tolist())), encoding="utf-8")
        matrix = str(tmp_path / "m.tsv")
        head = ["--embeddings", str(emb), "--seed", "3"]
        assert run([*head, "--quiet", "--out", matrix, "matrix", *flags, "--samples", "200"],
                   capsys=capsys)[0] == 0
        digests = []
        for command in (["verify-dp", "--epsilon", "2"],
                        ["attack", "--prior", "zipf:1.1", "--trials", "3000"]):
            code, out, _ = run([*head, command[0], "--matrix", matrix, *command[1:]],
                               capsys=capsys)
            assert code == 0
            report = parse_report(out)
            del report["metadata"]
            digests.append(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
        assert digests == [verify_digest, attack_digest]


class TestStats:
    def test_stats_json(self, emb, capsys):
        code, out, _ = run(
            [
                "--embeddings", emb, "stats", "--epsilon", "1000",
                "--trials", "500", "--words", "v",
            ],
            capsys=capsys,
        )
        assert code == 0
        payload = parse_report(out)
        assert payload["stats"][0]["p_unchanged"] >= 0.99
        assert payload["metadata"]["mechanism"]["epsilon"] == 1000

    def test_pinned_rows(self, emb, capsys):
        # taken when each listed word drew perturb_batch(rng.fork(w), w,
        # trials) in a loop of its own; a repeated word repeats its row
        pinned = {
            "v": {"p_unchanged": 0.6133333333333333, "support_size": 5, "entropy": 1.1787338204243363},
            "w": {"p_unchanged": 0.5833333333333334, "support_size": 5, "entropy": 1.2249693979309417},
            "x": {"p_unchanged": 0.61, "support_size": 5, "entropy": 1.1759488594546217},
            "y": {"p_unchanged": 0.62, "support_size": 5, "entropy": 1.1516246517310877},
            "z": {"p_unchanged": 0.23333333333333334, "support_size": 5, "entropy": 1.596837308662266},
        }
        argv = ["--embeddings", emb, "--seed", "11", "stats", "--epsilon", "0.3", "--trials", "300"]
        for extra, words in (([], list(pinned)), (["--words", "v", "z", "v"], ["v", "z", "v"])):
            code, out, _ = run(argv + extra, capsys=capsys)
            assert code == 0
            payload = parse_report(out)
            assert payload["trials"] == 300
            assert payload["stats"] == [{"word": w, "n_trials": 300, **pinned[w]} for w in words]

    def test_every_density_echo_holds_mh_steps(self, emb, tmp_path, capsys):
        # the chain length was echoed only when some chain setting was given
        density = {"variant": "density", "epsilon": 1}
        for given, echo in (({}, {"mh_steps": 1010}), ({"mh_steps": 5}, {"mh_steps": 5})):
            flags = [f"--{key.replace('_', '-')}={value}" for key, value in given.items()]
            code, out, _ = run(
                ["--embeddings", emb, "stats", "--mechanism", "density", "--epsilon", "1",
                 *flags, "--trials", "2", "--words", "v"],
                capsys=capsys,
            )
            assert code == 0
            assert parse_report(out)["metadata"]["mechanism"] == {**density, **echo}, flags
            path = tmp_path / "lac.json"
            path.write_text(json.dumps({"n_users": 2, "m_per_user": 1,
                                        "mechanism": {**density, **given}}), encoding="utf-8")
            code, out, _ = run(
                ["--embeddings", emb, "pipeline", "--config", str(path)], capsys=capsys
            )
            assert code == 0
            echoed = parse_report(out)["metadata"]["config"]["mechanism"]
            assert echoed == {**density, **echo}, given


class TestPipeline:
    def test_byte_identical_reports(self, emb, tmp_path, capsys):
        cfg = {
            "n_users": 5,
            "m_per_user": 2,
            "mechanism": {"variant": "baseline", "epsilon": 2.0},
            "amplifiers": [{"kind": "shuffle"}],
            "seed": 11,
            "corpus": {"kind": "zipf", "s": 1.1},
        }
        cfg_file = tmp_path / "lac.json"
        cfg_file.write_text(json.dumps(cfg))
        reports = []
        for _ in range(2):
            code, out, _ = run(
                ["--embeddings", emb, "pipeline", "--config", str(cfg_file)], capsys=capsys
            )
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert parse_report(reports[0])["metadata"]["config"]["seed"] == 11

    def test_seed_flag_overrides_config(self, emb, tmp_path, capsys):
        cfg = {
            "n_users": 5,
            "m_per_user": 2,
            "mechanism": {"variant": "baseline", "epsilon": 0.5},
            "seed": 11,
        }
        cfg_file = tmp_path / "lac.json"
        cfg_file.write_text(json.dumps(cfg))
        _, base, _ = run(
            ["--embeddings", emb, "pipeline", "--config", str(cfg_file)], capsys=capsys
        )
        assert parse_report(base)["metadata"]["config"]["seed"] == 11
        # argparse takes an unambiguous prefix of --seed as --seed
        for flag in (["--seed", "99"], ["--se=99"], ["--see", "99"]):
            _, other, _ = run(
                ["--embeddings", emb, *flag, "pipeline", "--config", str(cfg_file)],
                capsys=capsys,
            )
            assert parse_report(other)["metadata"]["config"]["seed"] == 99, flag


class TestIngest:
    def test_cache_round_trip(self, emb, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "emb.npz"
        code, _, _ = run(
            ["--embeddings", emb, "--quiet", "--out", str(cache), "ingest"], capsys=capsys
        )
        assert code == 0
        code, out, _ = run(
            ["--embeddings", str(cache), "perturb", "--epsilon", "1000"],
            stdin="v w\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == "v w\n"


class TestTextInAndOut:
    @pytest.mark.parametrize("source", ["perturb --input", "perturb stdin", "verify-dp --matrix",
                                        "attack --matrix", "pipeline --config"])
    def test_byte_order_mark_is_skipped_on_every_input(self, source, emb, tmp_path, monkeypatch,
                                                       capsys):
        # each exited 2 on a BOM copy: perturb read the mark into its first
        # token, and verify-dp, attack and pipeline refused the file
        matrix = "#privtext-matrix-v2\n" + "".join(f"{w}\t{w}\t10\n" for w in "vwxyz")
        config = json.dumps({"n_users": 2, "m_per_user": 1,
                             "mechanism": {"variant": "baseline", "epsilon": 1.0}})
        path = tmp_path / "input.txt"
        argv, text = {
            "perturb --input": (["perturb", "--epsilon", "1", "--input", str(path)], "v w\nx\n"),
            "perturb stdin": (["perturb", "--epsilon", "1"], "v w\nx\n"),
            "verify-dp --matrix": (["verify-dp", "--matrix", str(path), "--epsilon", "1"], matrix),
            "attack --matrix": (["attack", "--matrix", str(path), "--trials", "50"], matrix),
            "pipeline --config": (["pipeline", "--config", str(path)], config),
        }[source]
        outs = []
        for data in (text.encode("utf-8"), b"\xef\xbb\xbf" + text.encode("utf-8")):
            path.write_bytes(data)
            code, out, err = run(["--embeddings", emb, *argv],
                                 stdin=data if source == "perturb stdin" else None,
                                 monkeypatch=monkeypatch, capsys=capsys)
            assert (code, err) == (0, ""), data
            outs.append(out)
        assert outs[0] and outs[1] == outs[0]

    def test_output_bytes_do_not_depend_on_the_locale(self, tmp_path):
        # under PYTHONIOENCODING=ascii perturb --input and sensitivity ended
        # in a UnicodeEncodeError traceback (exit 1); under latin-1 stdout
        # held the byte 0xE9 for "\xe9", and stdin's UTF-8 "\xe9t\xe9" read as
        # an out-of-vocabulary token
        path = tmp_path / "emb.txt"
        path.write_text("\xe9t\xe9 0 0\nv 8 0\nw 0 8\n", encoding="utf-8")
        words = tmp_path / "words.txt"
        words.write_text("v \xe9t\xe9\nw\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for argv, stdin in (
            (["perturb", "--epsilon", "1000"], words.read_bytes()),
            (["perturb", "--epsilon", "1000", "--input", str(words)], b""),
            (["sensitivity", "--beta", "1"], b""),
        ):
            runs = {
                encoding: subprocess.run(
                    [sys.executable, "-m", "privtext.cli", "--embeddings", str(path), *argv],
                    input=stdin, capture_output=True, timeout=120,
                    env={**env, "PYTHONIOENCODING": encoding},
                )
                for encoding in ("utf-8", "ascii", "latin-1")
            }
            want = runs["utf-8"].stdout
            assert "\xe9t\xe9".encode("utf-8") in want, argv
            for encoding, proc in runs.items():
                assert (proc.returncode, proc.stderr) == (0, b""), (argv, encoding)
                assert proc.stdout == want, (argv, encoding)


class TestErrors:
    def test_missing_embeddings_exit_2(self, capsys):
        code, _, err = run(["sensitivity", "--beta", "0"], capsys=capsys)
        assert code == 2

    def test_bad_config_exit_2(self, emb, capsys):
        code, _, _ = run(
            ["--embeddings", emb, "perturb", "--mechanism", "baseline", "--epsilon", "1", "--tau", "2"],
            capsys=capsys,
        )
        assert code == 2

    def test_knn_beyond_vocabulary_exit_2(self, emb, monkeypatch, capsys):
        # checked when the mechanism is built, so even empty input fails
        code, _, err = run(
            ["--embeddings", emb, "perturb", "--mechanism", "trunc_knn", "--knn", "5",
             "--epsilon", "1"],
            stdin="",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "k=5" in err

    def test_malformed_matrix_exit_2(self, emb, tmp_path, capsys):
        head = "#privtext-matrix-v2\n"
        rows = "".join(f"{w}\t{w}\t10\n" for w in "vwxyz")
        for text in (
            head + "v\tw\n" + rows,
            head + "v\tw\t0.5\n" + rows,
            head + rows.replace("z\tz\t10\n", ""),  # missing row
            head + rows.replace("z\tz\t10\n", "z\tz\t9\n"),  # rows that differ
            head + rows.replace("z\tz\t10\n", "z\tz\t0\n"),  # an all-zero row
            head + rows.replace("z\tz\t10\n", f"z\tz\t{2**64}\n"),
            "#privtext-matrix-v1\n#samples 10\n" + rows,
        ):
            path = tmp_path / "m.tsv"
            path.write_text(text, encoding="utf-8")
            for command in (["verify-dp", "--epsilon", "1"], ["attack", "--trials", "10"]):
                code, _, err = run(
                    ["--embeddings", emb, command[0], "--matrix", str(path), *command[1:]],
                    capsys=capsys,
                )
                assert code == 2, (text, command, err)
                # the error names the file, as the store's errors do
                assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_verdict_follows_the_counts_alone(self, tmp_path, capsys):
        # one v1 file's three rows read satisfied under '#samples 2' and
        # violated under '#samples 1000000'; a v2 file's counts give the
        # total, and a '#samples' line there is a comment
        emb = tmp_path / "e.txt"
        emb.write_text("a 0\nb 1\nc 2\n", encoding="utf-8")
        path = tmp_path / "m.tsv"
        argv = ["--embeddings", str(emb), "verify-dp", "--matrix", str(path), "--epsilon", "1"]
        rows = ((1, 1, 0), (1, 1, 0), (0, 1, 1))
        reports = {}
        for scale in (1, 500_000):
            body = "".join(f"{w}\t{u}\t{c * scale}\n"
                           for w, row in zip("abc", rows) for u, c in zip("abc", row) if c)
            for comment in ("", "#samples 2\n", "#samples 1000000\n"):
                path.write_text("#privtext-matrix-v2\n" + comment + body, encoding="utf-8")
                code, out, _ = run(argv, capsys=capsys)
                assert code == 0
                reports.setdefault(scale, set()).add(out)
        assert [len(outs) for outs in reports.values()] == [1, 1]
        verdicts = [parse_report(outs.pop()) for outs in reports.values()]
        assert [(r["sample_count"], r["satisfied"]) for r in verdicts] == [
            (2, True), (1_000_000, False)
        ]

    def test_huge_sample_count_exit_2(self, emb, tmp_path, capsys):
        # at 1e20, 1 - alpha**(1/n) rounded to 0 and the report read inf with
        # divide-by-zero warnings; 1e400 escaped as an OverflowError
        path = tmp_path / "m.tsv"
        argv = ["--embeddings", emb, "verify-dp", "--matrix", str(path), "--epsilon", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for count in (10**20, 10**400, -1):
                rows = "".join(f"{w}\t{w}\t{count}\n" for w in "vwxyz")
                path.write_text(f"#privtext-matrix-v2\n{rows}", encoding="utf-8")
                code, out, err = run(argv, capsys=capsys)
                assert code == 2, count
                assert err.startswith("error:") and "count in [0, 2**53]" in err and out == ""
            # the largest count a float64 holds exactly still verifies
            rows = "".join(f"{w}\t{w}\t{2**53}\n" for w in "vwxyz")
            path.write_text(f"#privtext-matrix-v2\n{rows}", encoding="utf-8")
            code, out, _ = run(argv, capsys=capsys)
        assert code == 0
        report = parse_report(out)
        assert report["satisfied"] is False and math.isfinite(report["max_violation"])

    def test_overflowing_store_exit_2(self, tmp_path, monkeypatch, capsys):
        # finite components whose squared distances overflow: sensitivity
        # failed on a NaN envelope (exit 4), perturb decoded garbage (exit 0)
        path = tmp_path / "huge.txt"
        path.write_text("a 1e308\nb -1e308\nc 0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv, stdin in (
                (["sensitivity", "--beta", "1"], None),
                (["perturb", "--epsilon", "1"], "a b c\n"),
            ):
                code, out, err = run(["--embeddings", str(path), *argv], stdin=stdin,
                                     monkeypatch=monkeypatch, capsys=capsys)
                assert code == 2, argv
                assert err.startswith("error:") and "overflow" in err and out == ""

    def test_zero_dimensional_cache_exit_2(self, tmp_path, capsys):
        # sensitivity printed an all-zero profile; density stats failed on
        # a sigma of 0
        from privtext.embeddings import CACHE_MAGIC

        path = tmp_path / "flat.npz"
        np.savez(path, magic=np.array(CACHE_MAGIC), words=np.array(["a", "b", "c"]),
                 vectors=np.zeros((3, 0)))
        for argv in (
            ["sensitivity", "--beta", "1"],
            ["stats", "--mechanism", "density", "--epsilon", "1", "--trials", "2"],
        ):
            code, out, err = run(["--embeddings", str(path), *argv], capsys=capsys)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and "Traceback" not in err

    def test_density_bandwidth_exit_2(self, emb, tmp_path, monkeypatch, capsys):
        # a default sigma of 0 (most words duplicated) and a sigma of 1e-200
        # exited 0 with a chain that never accepted; 1e200 ended in an
        # OverflowError traceback, exit 1
        dup = tmp_path / "dup.txt"
        dup.write_text("a 0 0\nb 0 0\nc 3 4\n", encoding="utf-8")
        for path, stdin, flags, says in (
            (str(dup), "a b c\n", [], "median nearest-neighbour distance"),
            (emb, "v w x\n", ["--sigma", "1e200"], "normal float"),
            (emb, "v w x\n", ["--sigma", "1e-200"], "normal float"),
        ):
            code, out, err = run(["--embeddings", path, "perturb", "--mechanism", "density",
                                  "--epsilon", "1", *flags], stdin=stdin,
                                 monkeypatch=monkeypatch, capsys=capsys)
            assert code == 2 and out == "", flags
            assert err.startswith("error:") and says in err and err.count("\n") == 1, flags

    def test_truncation_mass_underflow_exit_2(self, tmp_path, monkeypatch, capsys):
        # at d = 300, eps = 1 no mass lies inside tau = 10: every radius was
        # 0 and perturb echoed its input (exit 0)
        path = tmp_path / "d300.txt"
        vectors = np.random.default_rng(0).normal(size=(3, 300))
        path.write_text("".join(f"w{i} " + " ".join(map(repr, v)) + "\n"
                                for i, v in enumerate(vectors.tolist())), encoding="utf-8")
        argv = ["--embeddings", str(path), "perturb", "--mechanism", "trunc_distance",
                "--epsilon", "1", "--tau", "10"]
        code, out, err = run(argv, stdin="w0 w1\n", monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "d=300, epsilon=1.0, tau=10.0" in err
        assert "Traceback" not in err

    def test_missing_matrix_row_under_python_O(self, emb, tmp_path):
        # the row-sum check must not be an assert, which -O strips
        path = tmp_path / "m.tsv"
        path.write_text(
            "#privtext-matrix-v2\n" + "".join(f"{w}\t{w}\t10\n" for w in "vwxy"),
            encoding="utf-8",
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "privtext.cli", "--embeddings", emb,
             "verify-dp", "--matrix", str(path), "--epsilon", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "row 4" in proc.stderr
        assert proc.stdout == ""

    def test_bad_attack_prior_exit_2(self, emb, tmp_path, capsys):
        path = tmp_path / "m.tsv"
        path.write_text(
            "#privtext-matrix-v2\n" + "".join(f"{w}\t{w}\t10\n" for w in "vwxyz"),
            encoding="utf-8",
        )
        for prior in ("zipf:abc", "foo", "zipf", "zipf:", "zipf:nan", "zipf:-1", "uniform:2"):
            code, _, err = run(
                ["--embeddings", emb, "attack", "--matrix", str(path), "--prior", prior],
                capsys=capsys,
            )
            assert code == 2, prior
            assert err.startswith("error:") and "--prior" in err
        code, out, _ = run(
            ["--embeddings", emb, "attack", "--matrix", str(path), "--prior", "zipf:1.1",
             "--trials", "100"],
            capsys=capsys,
        )
        assert code == 0 and parse_report(out)["accuracy"] == 1.0

    def test_bad_pipeline_config_exit_2(self, emb, tmp_path, capsys):
        path = tmp_path / "lac.json"
        base = {"n_users": 2, "m_per_user": 1, "mechanism": {"variant": "baseline", "epsilon": 1.0}}
        density = {"variant": "density", "epsilon": 1.0}
        # integer fields given a float or a bool: each was run rounded down,
        # accepted or ended in a TypeError traceback
        not_integers = [
            {**base, "mechanism": {**density, "mh_steps": 0}},
            {**base, "mechanism": {**density, "mh_steps": 1.5}},
            {**base, "mechanism": {**density, "mh_steps": True}},
            {**base, "mechanism": {**density, "mh_steps": "3"}},
            {**base, "mechanism": {"variant": "trunc_knn", "epsilon": 1.0, "k": 1.5}},
            {**base, "mechanism": {"variant": "trunc_knn", "epsilon": 1.0, "k": True}},
            {**base, "amplifiers": [{"kind": "kthreshold", "k": 1.5}]},
            {**base, "n_users": 2.9},
            {**base, "m_per_user": True},
            {**base, "seed": 1.5},
        ]
        for text in (
            *map(json.dumps, not_integers),
            json.dumps({"n_users": 2, "mechanism": {"variant": "baseline", "epsilon": 1.0}}),
            json.dumps([1, 2]),
            json.dumps({"n_users": "two", "m_per_user": 1, "mechanism": {}}),
            json.dumps({"n_users": 2, "m_per_user": 1,
                        "mechanism": {"variant": "baseline", "epsilon": 1.0},
                        "corpus": {"kind": "words", "words_per_user": [[["v"]], [["w"]]]}}),
            "{not json",
        ):
            path.write_text(text, encoding="utf-8")
            code, _, err = run(
                ["--embeddings", emb, "pipeline", "--config", str(path)], capsys=capsys
            )
            assert code == 2, text
            assert err.startswith("error:") and "Traceback" not in err
        # typos that ran another experiment, each named in its error: an
        # unknown corpus kind ran Zipf(1.1), a key the tagged kind does not
        # take or an unknown key was dropped, a string row became one-letter
        # tokens; the old burn_in/thin pair and the old nested mh object
        # would run another chain length
        rows = [["v"], ["w"]]
        silent = [
            ({**base, "corpus": {"kind": "word", "words_per_user": rows}}, "'word'"),
            ({**base, "corpus": {"kind": "zipf", "S": 3.0}}, "'S'"),
            ({**base, "corpus": {"kind": "zipf", "words_per_user": rows}}, "words_per_user"),
            ({**base, "corpus": {"kind": "words", "s": 3.0, "words_per_user": rows}}, "s is"),
            ({**base, "m_per_user": 2,
              "corpus": {"kind": "words", "words_per_user": ["vw", "xy"]}}, "words_per_user"),
            ({**base, "amplifier": [{"kind": "shuffle"}]}, "'amplifier'"),
            ({**base, "sead": 5}, "'sead'"),
            ({**base, "mechanism": {**density, "burn_in": 1000}}, "'burn_in'"),
            ({**base, "mechanism": {**density, "thin": 10}}, "'thin'"),
            ({**base, "mechanism": {**density, "mh": {"steps": 5}}}, "'mh'"),
        ]
        for config, named in silent:
            path.write_text(json.dumps(config), encoding="utf-8")
            code, out, err = run(
                ["--embeddings", emb, "pipeline", "--config", str(path)], capsys=capsys
            )
            assert code == 2 and out == "", config
            assert err.startswith("error:") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("field", list(REAL_FIELDS))
    def test_real_field_not_a_number_exit_2(self, field, emb, tmp_path, capsys):
        # a bool ran as 0 or 1 and was echoed as given; "s" was parsed from
        # a string; Infinity passed and was echoed as Infinity, not JSON; an
        # int beyond the float range ended in an OverflowError
        path = tmp_path / "lac.json"
        base = {"n_users": 2, "m_per_user": 1, "mechanism": {"variant": "baseline", "epsilon": 1.0}}
        for bad in (True, "0.5", float("inf"), 10**400):
            path.write_text(json.dumps({**base, **REAL_FIELDS[field](bad)}), encoding="utf-8")
            code, out, err = run(
                ["--embeddings", emb, "pipeline", "--config", str(path)], capsys=capsys
            )
            assert code == 2 and out == "", (field, bad)
            assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_infinite_real_flags_exit_2(self, emb, monkeypatch, capsys):
        # --epsilon inf returned every word unchanged
        for flags, field in (
            (["--epsilon", "inf"], "epsilon"),
            (["--mechanism", "density", "--epsilon", "1", "--sigma", "inf"], "sigma"),
        ):
            code, out, err = run(
                ["--embeddings", emb, "perturb", *flags],
                stdin="v w\n", monkeypatch=monkeypatch, capsys=capsys,
            )
            assert code == 2 and out == "", flags
            assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_verify_dp_one_word_exit_2(self, tmp_path, capsys):
        # it reported satisfied: true with -Infinity violations, having
        # checked no pair
        one = tmp_path / "one.txt"
        one.write_text("v 0 0\n", encoding="utf-8")
        matrix = tmp_path / "m.tsv"
        matrix.write_text("#privtext-matrix-v2\nv\tv\t10\n", encoding="utf-8")
        code, out, err = run(
            ["--embeddings", str(one), "verify-dp", "--matrix", str(matrix), "--epsilon", "1"],
            capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "at least 2 words" in err

    def test_bad_vector_file_names_the_file_and_the_word_exit_2(self, tmp_path, capsys):
        # the store checks both; the text loader adds only the path
        for text, word in (("v 0 0\nw 1 nan\n", "'w'"), ("v 0 0\nw 1 1\nv 2 2\n", "'v'")):
            path = tmp_path / "bad.txt"
            path.write_text(text, encoding="utf-8")
            code, out, err = run(["--embeddings", str(path), "sensitivity", "--beta", "0"],
                                 capsys=capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {path}: ") and word in err

    def test_header_only_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "header.txt"
        path.write_text("5 2\n", encoding="utf-8")
        code, out, err = run(["--embeddings", str(path), "perturb", "--epsilon", "1",
                              "--input", os.devnull], capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"error: {path}: no embedding records\n"

    def test_non_utf8_files_exit_2(self, emb, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"v 0 0\n\xff\xfe 1 1\n")
        for argv in (
            ["--embeddings", str(bad), "sensitivity", "--beta", "0"],
            ["--embeddings", emb, "verify-dp", "--matrix", str(bad), "--epsilon", "1"],
            ["--embeddings", emb, "attack", "--matrix", str(bad)],
            ["--embeddings", emb, "pipeline", "--config", str(bad)],
            ["--embeddings", emb, "perturb", "--epsilon", "1", "--input", str(bad)],
        ):
            code, _, err = run(argv, capsys=capsys)
            assert code == 2, argv
            assert err.startswith("error:") and "UTF-8" in err
        # stdin is decoded as strictly: a byte that is not UTF-8 was read as
        # the token '\udcff', an out-of-vocabulary error, and with --skip-oov
        # passed through to stdout with exit 0
        for flags in ([], ["--skip-oov"]):
            code, out, err = run(["--embeddings", emb, "perturb", "--epsilon", "1", *flags],
                                 stdin=b"v \xff\n", monkeypatch=monkeypatch, capsys=capsys)
            assert (code, out) == (2, ""), flags
            assert err.startswith("error: <stdin>: ") and "UTF-8" in err
            assert err.count("\n") == 1, flags

    def test_missing_file_exit_3(self, capsys):
        code, _, _ = run(
            ["--embeddings", "/nonexistent/emb.txt", "sensitivity", "--beta", "0"],
            capsys=capsys,
        )
        assert code == 3
