"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dgmdist.cli as cli
from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    TreeConfig,
    build_tree,
    embed,
    gen_uniform,
    load_diagram,
    multi_tree_estimate,
    save_diagram,
    union_coords,
    write_vector,
)
from dgmdist.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIZE_CAP,
    EXIT_USAGE,
    _derived_seeds,
    main,
)


def write_singleton(path, birth, death):
    save_diagram(PersistenceDiagram([(birth, death)]), path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, _, _ = run(
            capsys,
            "gen", "--kind", "uniform", "--count", "5",
            "--max-size", "20", "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        files = sorted(out.glob("dgm_*.txt"))
        assert len(files) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "uniform"
        assert len(manifest["files"]) == 5

    def test_rerun_is_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(
                capsys,
                "gen", "--kind", "gaussian", "--count", "3",
                "--max-size", "10", "--seed", "7", "--out", str(out),
            )
        for name in ("dgm_0000.txt", "dgm_0001.txt", "dgm_0002.txt", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_count_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen", "--kind", "uniform", "--count", "0",
            "--max-size", "5", "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_USAGE
        assert "count" in err


class TestDist:
    def test_exact_two_singletons(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_singleton(a, 0, 4)
        write_singleton(b, 0, 6)
        code, out, _ = run(
            capsys, "dist", str(a), str(b), "--method", "exact", "--metric", "l2"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["method"] == "exact"
        assert report["value"] == pytest.approx(2.0)

    def test_flowtree_self_distance_zero(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_singleton(a, 1, 5)
        code, out, _ = run(capsys, "dist", str(a), str(a), "--method", "flowtree")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["value"] == 0.0
        assert len(report["tree_meta"]) == 1
        assert "root_fallback" not in report["tree_meta"][0]

    def test_pair_far_from_the_diagonal_within_sqrt8(self, tmp_path, capsys):
        # points far from the diagonal compared with their spread: the root
        # still meets the diagonal, so the flowtree matching is the exact
        # one and exact <= sqrt(8) * embedding, compared exactly
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_diagram(PersistenceDiagram([(0, 100), (1, 101)]), a)
        write_singleton(b, 0, 100)
        values = {}
        for method in ("exact", "flowtree", "embedding"):
            code, out, _ = run(
                capsys, "dist", str(a), str(b), "--method", method, "--metric", "l2",
                "--seed", "0",
            )
            assert code == EXIT_OK
            values[method] = json.loads(out)["value"]
        assert values["flowtree"] == values["exact"]
        assert Fraction(values["exact"]) ** 2 <= 8 * Fraction(values["embedding"]) ** 2

    def test_min_reduce_below_mean_reduce(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_singleton(a, 0, 4)
        write_singleton(b, 3, 9)
        _, out_min, _ = run(
            capsys, "dist", str(a), str(b),
            "--trees", "10", "--reduce", "min", "--seed", "5",
        )
        _, out_mean, _ = run(
            capsys, "dist", str(a), str(b),
            "--trees", "10", "--reduce", "mean", "--seed", "5",
        )
        v_min = json.loads(out_min)["value"]
        v_mean = json.loads(out_mean)["value"]
        assert v_min <= v_mean

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n")
        good = tmp_path / "good.txt"
        write_singleton(good, 0, 4)
        code, _, err = run(capsys, "dist", str(bad), str(good))
        assert code == EXIT_PARSE
        assert "death <= birth" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "0 4 100000000000000000000\n",
                "error: a.txt: multiplicity does not fit in int64 at line 1",
            ),
            (
                "0 4 9223372036854775807\n1 5 1\n",
                "error: a.txt: total multiplicity 9223372036854775808 does not fit in int64",
            ),
        ],
    )
    def test_multiplicity_past_int64_is_parse_error(self, tmp_path, capsys, text, message):
        a, c = tmp_path / "a.txt", tmp_path / "c.txt"
        a.write_text(text)
        write_singleton(c, 0, 4)
        code, out, err = run(capsys, "dist", str(a), str(c))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.splitlines()[1:] == [message]

    def test_utf8_comment_parses_under_an_ascii_locale(self, tmp_path, capsys):
        # the C locale with UTF-8 mode off makes ASCII the default encoding
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("# café\n0 4\n", encoding="utf-8")
        write_singleton(b, 1, 3)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0")
        env.pop("DGMDIST_SEED", None)
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "dgmdist.cli", "dist", str(a), str(b)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == EXIT_OK, done.stderr
        code, out, _ = run(capsys, "dist", str(a), str(b))
        assert code == EXIT_OK
        assert json.loads(done.stdout)["value"] == json.loads(out)["value"]

    def test_bytes_not_utf8_are_a_parse_error(self, tmp_path, capsys):
        a, c = tmp_path / "a.txt", tmp_path / "c.txt"
        a.write_bytes(b"0 4\n# stray \xff byte\n1 5\n")
        write_singleton(c, 0, 4)
        code, out, err = run(capsys, "dist", str(a), str(c))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.splitlines()[1:] == ["error: a.txt: not UTF-8 text at line 2"]

    def test_oracle_cap_exit_code(self, tmp_path, capsys):
        # 2001 + 2001 expanded points exceed the default 4000 cap
        big = PersistenceDiagram([(0.0, 1.0 + i, 1) for i in range(2001)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_diagram(big, a)
        save_diagram(big, b)
        code, _, err = run(capsys, "dist", str(a), str(b), "--method", "exact")
        assert code == EXIT_SIZE_CAP
        assert "cap" in err

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    @pytest.mark.parametrize(
        "first,second",
        [
            # a subnormal separation: root side / separation is infinite
            # (under L2 the gap squares to 0, and the Linf separation holds)
            ([(0.0, 16.0), (5e-324, 16.0)], [(1.0, 9.0)]),
            # a finite ratio whose depth needs 2.0 ** 1024
            ([(0.0, 1e300), (3e-21, 1e300), (1e287, 1e300)], []),
        ],
    )
    def test_depth_overflow_is_one_error_line(self, tmp_path, capsys, first, second, metric):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_diagram(PersistenceDiagram(first), a)
        save_diagram(PersistenceDiagram(second), b)
        code, out, err = run(
            capsys, "dist", str(a), str(b), "--method", "flowtree", "--metric", metric
        )
        assert code == EXIT_INTERNAL
        assert out == ""
        echo, message = err.splitlines()
        assert echo.startswith("# dgmdist dist:")
        assert message.startswith("error: tree depth overflows")

    def test_argument_echo_on_stderr(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        _, _, err = run(capsys, "dist", str(a), str(a), "--method", "exact")
        first_line = err.splitlines()[0]
        assert first_line.startswith("# dgmdist dist:")
        assert "exact" in first_line

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        code, _, err = run(capsys, "dist", str(a), str(tmp_path / "nope.txt"))
        assert code == EXIT_USAGE
        assert "no such file" in err

    @pytest.mark.parametrize("trees", ["0", "-1"])
    @pytest.mark.parametrize("reduce", ["mean", "min"])
    def test_nonpositive_trees_is_usage_error(self, tmp_path, capsys, trees, reduce):
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        code, out, err = run(
            capsys, "dist", str(a), str(a), "--trees", trees, "--reduce", reduce
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: trees must be >= 1" in err

    @pytest.mark.parametrize("method", ["embedding", "flowtree"])
    def test_matches_multi_tree_estimate(self, tmp_path, capsys, method):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for s in range(40):
            first, second = gen_uniform(30, s), gen_uniform(30, s + 1000)
            save_diagram(first, a)
            save_diagram(second, b)
            code, out, _ = run(
                capsys, "dist", str(a), str(b), "--method", method,
                "--trees", "5", "--reduce", "mean", "--seed", str(s),
            )
            assert code == EXIT_OK
            report = json.loads(out)
            value, tree_meta = multi_tree_estimate(
                first, second, GroundMetric.L2, _derived_seeds(s, 5), "mean", method
            )
            assert report["value"] == value
            assert report["tree_meta"] == tree_meta


class TestEmbed:
    def make_dataset(self, capsys, out):
        run(
            capsys,
            "gen", "--kind", "uniform", "--count", "4",
            "--max-size", "8", "--seed", "1", "--out", str(out),
        )

    def test_identical_inputs_identical_bodies(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_singleton(data / "one.txt", 2, 9)
        write_singleton(data / "two.txt", 2, 9)
        vecs = tmp_path / "vecs"
        code, _, _ = run(
            capsys, "embed", "--in", str(data), "--out", str(vecs), "--seed", "4"
        )
        assert code == EXIT_OK
        one = (vecs / "one.vec").read_text().splitlines()
        two = (vecs / "two.vec").read_text().splitlines()
        assert one == two
        assert one[0] == two[0]  # shared tree signature header

    def test_seed_changes_signature(self, tmp_path, capsys):
        data = tmp_path / "data"
        self.make_dataset(capsys, data)
        va, vb = tmp_path / "va", tmp_path / "vb"
        run(capsys, "embed", "--in", str(data), "--out", str(va), "--seed", "1")
        run(capsys, "embed", "--in", str(data), "--out", str(vb), "--seed", "2")
        sig_a = (va / "dgm_0000.vec").read_text().splitlines()[0]
        sig_b = (vb / "dgm_0000.vec").read_text().splitlines()[0]
        assert sig_a != sig_b

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        data = tmp_path / "data"
        self.make_dataset(capsys, data)
        va, vb = tmp_path / "va", tmp_path / "vb"
        run(capsys, "embed", "--in", str(data), "--out", str(va), "--seed", "1")
        run(capsys, "embed", "--in", str(data), "--out", str(vb), "--seed", "1")
        for path in sorted(va.glob("*.vec")):
            assert path.read_bytes() == (vb / path.name).read_bytes()

    # sha256 of each .vec file the command below writes, pinned so that no
    # change to embed moves their bytes unseen
    VEC_DIGESTS = {
        "dgm_0000.vec": "8379061744e732f2332438b6848577fb8bde01cae7b1d0aa4ba2b80a48c44092",
        "dgm_0001.vec": "37430371d49ac2ef6cc10ee2291bdadb07c59883541836f8fe47d6457726b4f7",
        "dgm_0002.vec": "d8694f4ee64b90a7db7b856c6025f6f515eb413b1406b2215ba05333c7cad821",
        "dgm_0003.vec": "0427086b117ba6c227daa1b632fda25e3ffd55c53a2c0264f0fed3d852e22af8",
        "dgm_0004.vec": "40d879926bc0a09a073f479bd6c5cdc9f0bc7143f21933b7765df3c83a8fb706",
        "empty.vec": "ab1ee021007f3357cffa3211a7d7a8db82ab63f948602fe950a583dc30c99a52",
    }

    def test_vectors_match_per_diagram_write_vector(self, tmp_path, capsys):
        # the command writes the bytes one embed per file would, and the
        # bytes pinned in VEC_DIGESTS
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "gaussian", "--count", "5",
            "--max-size", "30", "--seed", "2", "--out", str(data))
        save_diagram(PersistenceDiagram(), data / "empty.txt")
        vecs = tmp_path / "vecs"
        code, _, _ = run(
            capsys, "embed", "--in", str(data), "--out", str(vecs),
            "--seed", "3", "--metric", "linf",
        )
        assert code == EXIT_OK
        paths = sorted(data.glob("*.txt"))
        diagrams = [load_diagram(p) for p in paths]
        tree = build_tree(
            union_coords(diagrams), TreeConfig(seed=3, ground_metric=GroundMetric.LINF)
        )
        for path, diagram in zip(paths, diagrams):
            expected = tmp_path / f"{path.stem}.expected"
            write_vector(embed(tree, diagram), expected)
            assert (vecs / f"{path.stem}.vec").read_bytes() == expected.read_bytes()
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(vecs.glob("*.vec"))
        }
        assert digests == self.VEC_DIGESTS

    def test_no_point_anywhere_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("a", "b", "c"):
            save_diagram(PersistenceDiagram(), data / f"{name}.txt")
        out = tmp_path / "vecs"
        code, _, err = run(capsys, "embed", "--in", str(data), "--out", str(out))
        assert code == EXIT_USAGE
        assert "error: no diagram holds a point" in err
        assert not out.exists()


class TestLogging:
    def test_host_logging_left_alone(self, tmp_path, monkeypatch):
        # main configures the dgmdist logger only: a host's root handler and
        # level stay as they were, the host's records still reach its
        # handler, and a command's warning goes to the stderr in force when
        # it is emitted, not to the host's handler
        import contextlib
        import io
        import logging

        import dgmdist.exact

        root = logging.getLogger()
        host_out = io.StringIO()
        handler = logging.StreamHandler(host_out)
        level = root.level
        root.addHandler(handler)
        root.setLevel(logging.INFO)
        try:
            queries, cands = tmp_path / "q", tmp_path / "c"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", "--kind", "uniform", "--count", "1", "--max-size", "1",
                             "--seed", "2", "--out", str(cands)]) == EXIT_OK
            assert err.getvalue().startswith("# dgmdist gen: ")
            assert root.level == logging.INFO and handler in root.handlers
            logging.getLogger("host").info("after gen")
            assert host_out.getvalue() == "after gen\n"

            # a cap of 3 points skips the 3-point query, not the 1-point one
            queries.mkdir()
            write_singleton(queries / "a.txt", 0, 4)
            save_diagram(PersistenceDiagram([(0, 4), (1, 5), (2, 6)]), queries / "b.txt")
            monkeypatch.setattr(dgmdist.exact, "DEFAULT_SIZE_CAP", 3)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main(["knn", "--queries", str(queries), "--candidates", str(cands),
                             "--method", "exact", "-k", "1"]) == EXIT_OK
            lines = err.getvalue().splitlines()
            assert lines[0].startswith("# dgmdist knn: ")
            assert lines[1:] == ["query b skipped: oracle size cap exceeded"]
            logging.getLogger("host").warning("after knn")
            assert host_out.getvalue() == "after gen\nafter knn\n"
            assert root.level == logging.INFO and root.handlers[-1] is handler
        finally:
            root.removeHandler(handler)
            root.setLevel(level)


class TestKnn:
    def test_exact_top1_is_ground_truth(self, tmp_path, capsys):
        queries, cands = tmp_path / "q", tmp_path / "c"
        run(capsys, "gen", "--kind", "uniform", "--count", "2",
            "--max-size", "6", "--seed", "2", "--out", str(queries))
        run(capsys, "gen", "--kind", "uniform", "--count", "6",
            "--max-size", "6", "--seed", "9", "--out", str(cands))
        out_csv = tmp_path / "knn.csv"
        code, _, _ = run(
            capsys,
            "knn", "--queries", str(queries), "--candidates", str(cands),
            "--method", "exact", "-k", "3", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "query,rank,candidate,distance"
        assert len(lines) == 1 + 2 * 3

        # recompute ground truth in-process
        from dgmdist import GroundMetric, exact_distance, load_diagram

        query_paths = sorted(queries.glob("*.txt"))
        cand_paths = sorted(cands.glob("*.txt"))
        for qi, qpath in enumerate(query_paths):
            q = load_diagram(qpath)
            dists = [
                exact_distance(q, load_diagram(c), GroundMetric.L2)
                for c in cand_paths
            ]
            best = cand_paths[min(range(len(dists)), key=lambda i: (dists[i], i))].stem
            top1 = [
                line.split(",")
                for line in lines[1:]
                if line.startswith(qpath.stem + ",1,")
            ]
            assert top1[0][2] == best

    @pytest.mark.parametrize("method", ["flowtree", "exact"])
    def test_workers_reproduce_sequential_output(self, tmp_path, capsys, method):
        # exact rows are solved on the pool, one query per job
        queries, cands = tmp_path / "q", tmp_path / "c"
        run(capsys, "gen", "--kind", "uniform", "--count", "2",
            "--max-size", "5", "--seed", "3", "--out", str(queries))
        run(capsys, "gen", "--kind", "uniform", "--count", "5",
            "--max-size", "5", "--seed", "8", "--out", str(cands))
        outputs = []
        for workers, name in (("1", "seq.csv"), ("2", "par.csv")):
            out_csv = tmp_path / name
            code, _, _ = run(
                capsys,
                "knn", "--queries", str(queries), "--candidates", str(cands),
                "--method", method, "-k", "2", "--seed", "4",
                "--workers", workers, "--out", str(out_csv),
            )
            assert code == EXIT_OK
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]

    def test_flowtree_stdout_same_with_two_workers(self, tmp_path, capsys):
        # --workers spreads only the exact oracle: the flowtree rows come
        # from one walk in the calling process, whatever its value
        queries, cands = tmp_path / "q", tmp_path / "c"
        run(capsys, "gen", "--kind", "gaussian", "--count", "3",
            "--max-size", "40", "--seed", "12", "--out", str(queries))
        run(capsys, "gen", "--kind", "gaussian", "--count", "15",
            "--max-size", "40", "--seed", "13", "--out", str(cands))
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run(
                capsys,
                "knn", "--queries", str(queries), "--candidates", str(cands),
                "--method", "flowtree", "-k", "15", "--seed", "6",
                "--workers", workers,
            )
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + 3 * 15

    def test_embedding_stdout_same_with_two_workers(self, tmp_path, capsys):
        # --workers spreads only the exact oracle: the embedding rows come
        # from one walk in the calling process, whatever its value
        queries, cands = tmp_path / "q", tmp_path / "c"
        run(capsys, "gen", "--kind", "gaussian", "--count", "3",
            "--max-size", "40", "--seed", "14", "--out", str(queries))
        run(capsys, "gen", "--kind", "gaussian", "--count", "15",
            "--max-size", "40", "--seed", "15", "--out", str(cands))
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run(
                capsys,
                "knn", "--queries", str(queries), "--candidates", str(cands),
                "--method", "embedding", "-k", "15", "--seed", "6",
                "--workers", workers,
            )
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + 3 * 15

    def test_no_point_anywhere_prints_exact_rows(self, tmp_path, capsys):
        # empty diagrams only: the tree methods print the exact method's
        # 0.0 rows instead of failing to build a tree
        queries, cands = tmp_path / "q", tmp_path / "c"
        queries.mkdir()
        cands.mkdir()
        save_diagram(PersistenceDiagram(), queries / "a.txt")
        for name in ("b", "c"):
            save_diagram(PersistenceDiagram(), cands / f"{name}.txt")
        outputs = {}
        for method in ("exact", "embedding", "flowtree"):
            code, out, _ = run(
                capsys,
                "knn", "--queries", str(queries), "--candidates", str(cands),
                "--method", method, "-k", "2",
            )
            assert code == EXIT_OK
            outputs[method] = out
        assert outputs["exact"].splitlines()[1:] == ["a,1,b,0.0", "a,2,c,0.0"]
        assert outputs["embedding"] == outputs["flowtree"] == outputs["exact"]


    def test_subdirectory_named_txt_is_not_a_diagram(self, tmp_path, capsys):
        queries, cands = tmp_path / "q", tmp_path / "c"
        run(capsys, "gen", "--kind", "gaussian", "--count", "1",
            "--max-size", "6", "--seed", "3", "--out", str(queries))
        run(capsys, "gen", "--kind", "gaussian", "--count", "2",
            "--max-size", "6", "--seed", "8", "--out", str(cands))
        argv = ["knn", "--queries", str(queries), "--candidates", str(cands),
                "--method", "exact", "-k", "2"]
        code, before, _ = run(capsys, *argv)
        assert code == EXIT_OK
        (cands / "sub.txt").mkdir()
        code, after, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        assert after == before
        # a directory holding only such an entry holds no diagram file
        empty = tmp_path / "e"
        (empty / "sub.txt").mkdir(parents=True)
        code, out, err = run(capsys, "knn", "--queries", str(queries),
                             "--candidates", str(empty))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines()[-1] == f"error: no diagram files (*.txt) in {empty}"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("out_file", [False, True])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, capsys, workers, out_file):
        queries, cands = tmp_path / "q", tmp_path / "c"
        run(capsys, "gen", "--kind", "uniform", "--count", "2",
            "--max-size", "5", "--seed", "3", "--out", str(queries))
        run(capsys, "gen", "--kind", "uniform", "--count", "3",
            "--max-size", "5", "--seed", "8", "--out", str(cands))
        out_csv = tmp_path / "knn.csv"
        argv = ["knn", "--queries", str(queries), "--candidates", str(cands),
                "--method", "flowtree", "-k", "2", "--workers", workers]
        code, out, err = run(capsys, *argv, *(["--out", str(out_csv)] if out_file else []))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines()[-1] == "error: workers must be >= 1"
        assert not out_csv.exists()


class TestEval:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, capsys, workers):
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "3",
            "--max-size", "5", "--seed", "4", "--out", str(data))
        out = tmp_path / "report"
        code, stdout, err = run(
            capsys, "eval", "--data", str(data), "--out", str(out), "--workers", workers
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.splitlines()[-1] == "error: workers must be >= 1"
        assert not out.exists()

    def test_one_diagram_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "1",
            "--max-size", "10", "--seed", "4", "--out", str(data))
        out = tmp_path / "report"
        code, _, err = run(
            capsys, "eval", "--data", str(data), "--out", str(out), "--seed", "1"
        )
        assert code == EXIT_USAGE
        assert "error: dataset must contain at least two diagrams" in err
        assert not out.exists()

    def test_subdirectory_named_txt_is_not_a_diagram(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "3",
            "--max-size", "6", "--seed", "4", "--out", str(data))
        (data / "sub.txt").mkdir()
        out = tmp_path / "report"
        code, _, err = run(
            capsys, "eval", "--data", str(data), "--out", str(out), "--n-pairs", "2",
            "--bench-sizes", "10", "--reps", "1",
        )
        assert code == EXIT_OK, err
        assert (out / "recall.csv").is_file()
        # one diagram file beside the directory is still one diagram
        lone = tmp_path / "lone"
        (lone / "sub.txt").mkdir(parents=True)
        save_diagram(PersistenceDiagram([(0, 1)]), lone / "a.txt")
        code, _, err = run(capsys, "eval", "--data", str(lone), "--out", str(out))
        assert code == EXIT_USAGE
        assert "error: dataset must contain at least two diagrams" in err

    @pytest.mark.parametrize("policy", ["per_pair", "whole_dataset"])
    def test_no_point_anywhere_completes(self, tmp_path, capsys, policy):
        # every pair has true distance 0 and is excluded; recall and ranking
        # rank 0.0 rows and no tree is built
        data = tmp_path / "data"
        data.mkdir()
        for name in ("a", "b", "c"):
            save_diagram(PersistenceDiagram(), data / f"{name}.txt")
        out = tmp_path / "report"
        code, _, err = run(
            capsys,
            "eval", "--data", str(data), "--out", str(out), "--n-pairs", "2",
            "--bench-sizes", "10", "--reps", "1", "--tree-policy", policy,
        )
        assert code == EXIT_OK, err
        assert (out / "recall.csv").is_file() and (out / "ranking.csv").is_file()

    def test_emits_five_csv_files(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "12",
            "--max-size", "10", "--seed", "4", "--out", str(data))
        out = tmp_path / "report"
        code, _, _ = run(
            capsys,
            "eval", "--data", str(data), "--out", str(out),
            "--n-pairs", "5", "--bench-sizes", "20,40", "--reps", "1",
            "--seed", "11",
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "error_stats.csv",
            "pair_errors.csv",
            "ranking.csv",
            "recall.csv",
            "runtime.csv",
        ]
        assert sorted(p.name for p in out.glob("*.json")) == [
            "error_stats.json",
            "pair_errors.json",
            "ranking.json",
            "recall.json",
            "runtime.json",
        ]

    def test_rerun_identical_modulo_timing(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "gaussian", "--count", "10",
            "--max-size", "8", "--seed", "6", "--out", str(data))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(
                capsys,
                "eval", "--data", str(data), "--out", str(out),
                "--n-pairs", "4", "--bench-sizes", "20", "--reps", "1",
                "--seed", "3",
            )
            outs.append(out)
        for csv_name in ("pair_errors.csv", "error_stats.csv", "recall.csv", "ranking.csv"):
            assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes()
        # runtime.csv: compare everything except the timing columns
        for line_a, line_b in zip(
            (outs[0] / "runtime.csv").read_text().splitlines(),
            (outs[1] / "runtime.csv").read_text().splitlines(),
        ):
            assert line_a.split(",")[:4] == line_b.split(",")[:4]


    def test_each_exact_distance_computed_once(self, tmp_path, capsys, monkeypatch):
        import dgmdist.evaluate

        calls = []
        exact = dgmdist.evaluate.exact_distance

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return exact(*args, **kwargs)

        monkeypatch.setattr(dgmdist.evaluate, "exact_distance", counting)
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "20",
            "--max-size", "8", "--seed", "5", "--out", str(data))
        code, _, _ = run(
            capsys,
            "eval", "--data", str(data), "--out", str(tmp_path / "report"),
            "--methods", "embedding,flowtree", "--metrics", "l2,l1",
            "--n-pairs", "4", "--bench-sizes", "20", "--reps", "1", "--seed", "2",
        )
        assert code == EXIT_OK
        n_queries, n_candidates = 2, 18  # 10/90 split of 20 diagrams
        assert len(calls) == 4 * 2 + n_queries * n_candidates

    def test_capped_query_exits_after_recall(self, tmp_path, capsys, monkeypatch):
        import dgmdist.evaluate

        exact_rows = dgmdist.evaluate._exact_rows
        jobs_per_call = []

        def first_query_capped(jobs, workers):
            # the second call solves the split's exact rows, after the error
            # suite's truths: its first query is over the oracle cap
            rows = exact_rows(jobs, workers)
            jobs_per_call.append(len(jobs))
            if len(jobs_per_call) == 2:
                rows[0] = None
            return rows

        monkeypatch.setattr(dgmdist.evaluate, "_exact_rows", first_query_capped)
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "20",
            "--max-size", "8", "--seed", "5", "--out", str(data))
        out = tmp_path / "report"
        code, _, err = run(
            capsys,
            "eval", "--data", str(data), "--out", str(out),
            "--n-pairs", "4", "--bench-sizes", "20", "--reps", "1", "--seed", "2",
        )
        assert code == EXIT_SIZE_CAP
        assert "cap" in err
        assert sorted(p.name for p in out.iterdir()) == [
            "error_stats.csv",
            "error_stats.json",
            "pair_errors.csv",
            "pair_errors.json",
            "recall.csv",
            "recall.json",
        ]
        assert jobs_per_call == [4, 2]  # 4 pairs, then 2 queries of 20 diagrams

    @pytest.mark.parametrize("metrics", ["l2", "l1,l2"])
    def test_knn_tables_are_knn_distances_rows(self, tmp_path, capsys, metrics):
        # recall and ranking are recall_at_m and ranking_table of each
        # method's knn_distances rows under the first metric, on the split
        # that ranking.csv names
        import dgmdist.evaluate as evaluate

        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "20",
            "--max-size", "8", "--seed", "5", "--out", str(data))
        out = tmp_path / "report"
        code, _, err = run(
            capsys,
            "eval", "--data", str(data), "--out", str(out), "--metrics", metrics,
            "--methods", "exact,embedding,flowtree", "--n-pairs", "3", "--bench-sizes", "10", "--reps", "1", "--seed", "7",
        )
        assert code == EXIT_OK, err
        _, dataset = cli._load_dir(data)
        metric = GroundMetric(metrics.split(",")[0])
        ranking = read_csv_rows(out / "ranking.csv")
        query_idx = sorted({int(row["query"]) for row in ranking})
        cand_idx = sorted({int(row["candidate"]) for row in ranking})
        assert len(query_idx) == 2 and len(query_idx) + len(cand_idx) == 20
        queries = [dataset[i] for i in query_idx]
        candidates = [dataset[i] for i in cand_idx]
        rows = {
            method: evaluate.knn_distances(queries, candidates, method, metric, 7)
            for method in evaluate.METHODS
        }
        recall, ranks = [], []
        for method, approx in rows.items():
            curve, skipped = evaluate.recall_at_m(rows["exact"], approx, method)
            assert skipped == 0
            recall.extend(
                {"method": method, "ground_metric": metric.value, "m": str(m), "recall": str(r)}
                for m, r in zip(curve.m_values, curve.recall)
            )
            for q, true_d, approx_d in zip(query_idx, rows["exact"], approx):
                ranks.extend(
                    {
                        "method": method,
                        "ground_metric": metric.value,
                        "query": str(q),
                        "candidate": str(cand_idx[c]),
                        "true_rank": str(tr),
                        "approx_rank": str(ar),
                    }
                    for c, (tr, ar) in enumerate(evaluate.ranking_table(true_d, approx_d))
                )
        assert read_csv_rows(out / "recall.csv") == recall
        assert ranking == ranks


def read_csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class TestOptionValues:
    @pytest.mark.parametrize(
        "command,options",
        [
            ("eval", ["--n-pairs", "0"]),
            ("eval", ["--methods", "magic"]),
            ("eval", ["--metrics", "l3"]),
            ("eval", ["--reps", "0"]),
            ("eval", ["--bench-sizes", "5,x"]),
            ("bench", ["--sizes", "20,10"]),
            ("bench", ["--sizes", "10,x"]),
            ("bench", ["--reps", "0"]),
            ("eval", ["--methods", "flowtree,flowtree"]),
            ("eval", ["--metrics", "l2,l1,l2"]),
            ("bench", ["--methods", "embedding,embedding"]),
            ("bench", ["--sizes", "5,5"]),
            ("eval", ["--bench-sizes", "10,20,20"]),
        ],
    )
    def test_bad_option_value_is_usage_error(self, tmp_path, capsys, command, options):
        data = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "4",
            "--max-size", "10", "--seed", "4", "--out", str(data))
        out = tmp_path / "report"
        if command == "eval":
            argv = ["eval", "--data", str(data), "--out", str(out), "--n-pairs", "2",
                    "--bench-sizes", "20", "--reps", "1"]
        else:
            argv = ["bench", "--sizes", "10", "--reps", "1", "--out", str(out)]
        code, stdout, err = run(capsys, *argv, *options)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.splitlines()[-1].startswith("error:")
        assert not out.exists()


class TestBench:
    def test_row_per_size_and_method(self, tmp_path, capsys):
        out = tmp_path / "runtime.csv"
        code, _, _ = run(
            capsys,
            "bench", "--sizes", "20,40", "--methods", "flowtree",
            "--reps", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("size,method,ground_metric,reps,")

    def test_oracle_size_cap_passes_through(self, tmp_path, capsys):
        out = tmp_path / "runtime.csv"
        code, _, err = run(
            capsys,
            "bench", "--sizes", "2001", "--methods", "exact",
            "--reps", "1", "--out", str(out),
        )
        assert code == EXIT_SIZE_CAP
        assert err.splitlines()[-1] == "error: expanded instance size 4002 exceeds cap 4000"
        assert not out.exists()


class TestInternalErrors:
    def test_unwritable_output_is_internal_error(self, tmp_path, capsys):
        from dgmdist.cli import EXIT_INTERNAL

        code, _, err = run(
            capsys,
            "bench", "--sizes", "5", "--methods", "flowtree",
            "--reps", "1", "--out", str(tmp_path),  # a directory, not a file
        )
        assert code == EXIT_INTERNAL
        assert "error" in err


class TestSeedEnvOverride:
    def test_env_seed_used_as_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DGMDIST_SEED", "99")
        out = tmp_path / "data"
        run(capsys, "gen", "--kind", "uniform", "--count", "1",
            "--max-size", "4", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DGMDIST_SEED", "abc")
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        code, out, err = run(capsys, "dist", str(a), str(a))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert "DGMDIST_SEED" in err

    def test_seed_option_overrides_invalid_env(self, tmp_path, capsys, monkeypatch):
        # the environment is read only when --seed is absent
        monkeypatch.setenv("DGMDIST_SEED", "abc")
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        code, out, err = run(capsys, "dist", str(a), str(a), "--seed", "3")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 0.0
        assert '"seed": 3' in err.splitlines()[0]


class TestNegativeSeed:
    def argv(self, tmp_path, command):
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        out = tmp_path / "out"
        return out, {
            "gen": ["gen", "--kind", "uniform", "--count", "2", "--max-size", "3",
                    "--out", str(out)],
            "dist": ["dist", str(a), str(a)],
            "knn": ["knn", "--queries", str(tmp_path), "--candidates", str(tmp_path),
                    "--out", str(out)],
            "eval": ["eval", "--data", str(tmp_path), "--out", str(out)],
            "embed": ["embed", "--in", str(tmp_path), "--out", str(out)],
            "bench": ["bench", "--sizes", "10", "--out", str(out)],
        }[command]

    @pytest.mark.parametrize("command", ["gen", "dist", "knn", "eval", "embed", "bench"])
    def test_option_is_usage_error(self, tmp_path, capsys, command):
        out, argv = self.argv(tmp_path, command)
        code, stdout, err = run(capsys, *argv, "--seed", "-1")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.splitlines() == ["error: --seed must be a non-negative integer, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "dist", "knn", "eval", "embed", "bench"])
    def test_env_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("DGMDIST_SEED", "-3")
        out, argv = self.argv(tmp_path, command)
        code, stdout, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.splitlines() == ["error: DGMDIST_SEED must be a non-negative integer, got '-3'"]
        assert not out.exists()


class TestParserReuse:
    @staticmethod
    def outcome(capsys, argv):
        """(exit code, stdout, stderr) of main(argv), an argparse exit
        included; dist's elapsed time is dropped."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if argv[0] == "dist" and code == EXIT_OK:
            out = {k: v for k, v in json.loads(out).items() if k != "elapsed"}
        return code, out, err

    def test_consecutive_commands_match_a_fresh_parser(self, tmp_path, capsys):
        # main builds its parser once per process; each of these commands,
        # run back to back, prints and exits as on a freshly built parser
        data = tmp_path / "data"
        files = [str(data / f"dgm_000{i}.txt") for i in range(2)]
        argvs = [
            ["gen", "--kind", "uniform", "--count", "3", "--max-size", "30",
             "--seed", "2", "--out", str(data)],
            ["dist", *files, "--trees", "2", "--method", "embedding"],
            ["knn", "--queries", str(data), "--candidates", str(data), "-k", "2"],
            ["dist", files[0]],
            ["dist", *files, "--metric", "l1"],
            ["knn", "--queries", str(data), "--candidates", str(data), "--method", "magic"],
            ["dist", *files, "--trees", "0"],
            ["dist", *files, "--seed", "5"],
        ]
        cli._parser.cache_clear()
        consecutive = [self.outcome(capsys, argv) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert consecutive == fresh
        codes = [code for code, _, _ in consecutive]
        assert codes == [EXIT_OK] * 3 + [EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK]
        assert "the following arguments are required: second" in consecutive[3][2]

    def test_rebound_command_runs_under_the_cached_parser(self, tmp_path, capsys, monkeypatch):
        # a tracer wraps the module's cmd_* functions after the parser is
        # built; main must run the wrapper
        a = tmp_path / "a.txt"
        write_singleton(a, 0, 4)
        assert main(["dist", str(a), str(a)]) == EXIT_OK
        calls = []
        real = cli.cmd_dist

        def wrapped(args):
            calls.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "cmd_dist", wrapped)
        assert main(["dist", str(a), str(a)]) == EXIT_OK
        assert calls == ["dist"]
