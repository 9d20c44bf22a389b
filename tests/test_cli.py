"""Generators and the command-line front end."""

import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from shallowcut import (
    DiGraph,
    EdgeSet,
    GeneratorSpec,
    WeightedEdgeSet,
    dist_all_pairs,
    fileio,
    generate,
    scc_topological,
)
from shallowcut.cli import main
from shallowcut.fileio import (
    FormatError,
    read_edge_set,
    read_graph,
    read_weighted_edge_set,
    write_edge_set,
    write_graph,
    write_weighted_edge_set,
)


class TestGenerators:
    def test_path_five_vertices(self):
        g = generate(GeneratorSpec("path", n=5))
        assert list(g.edges()) == [(i, i + 1, 1) for i in range(4)]

    def test_cycle(self):
        g = generate(GeneratorSpec("cycle", n=4))
        assert g.edge_count == 4
        assert len(scc_topological(g)) == 1

    def test_scc_chain_structure(self):
        g = generate(GeneratorSpec("scc-chain", blocks=27, block_size=3))
        assert g.vertex_count == 81
        comps = scc_topological(g)
        assert len(comps) == 27
        assert all(len(c) == 3 for c in comps)

    def test_dag_layers_is_acyclic(self):
        g = generate(GeneratorSpec("dag-layers", n=20, layers=4, big_n=5, seed=1))
        assert all(len(c) == 1 for c in scc_topological(g))

    def test_random_gnm_no_self_loops(self):
        g = generate(GeneratorSpec("random-gnm", n=30, m=200, big_n=4, seed=2))
        assert g.edge_count == 200
        assert np.all(g.tails != g.heads)

    def test_random_gnm_deterministic(self):
        a = generate(GeneratorSpec("random-gnm", n=128, m=512, big_n=32, seed=7))
        b = generate(GeneratorSpec("random-gnm", n=128, m=512, big_n=32, seed=7))
        assert list(a.edges()) == list(b.edges())

    def test_disjoint_paths(self):
        g = generate(GeneratorSpec("disjoint-paths", n=12, paths=3))
        d = dist_all_pairs(g)
        assert np.isinf(d[3, 4])  # last vertex of one path, first of the next
        assert d[0, 3] == 3

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GeneratorSpec("torus", n=4)

    def test_scc_chain_rejects_an_n_other_than_its_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            GeneratorSpec("scc-chain", n=100, blocks=3, block_size=3)

    @pytest.mark.parametrize("n", [0, 9])
    def test_scc_chain_n_unset_or_matching(self, n):
        g = generate(GeneratorSpec("scc-chain", n=n, blocks=3, block_size=3))
        assert g.vertex_count == 9

    @pytest.mark.parametrize("family, field", [
        ("path", "m"), ("cycle", "paths"), ("dag-layers", "blocks"),
        ("random-gnm", "layers"), ("scc-chain", "m"), ("disjoint-paths", "block_size"),
    ])
    def test_rejects_a_field_its_family_does_not_read(self, family, field):
        with pytest.raises(ValueError, match=f"^{family} does not read {field}$"):
            GeneratorSpec(family, n=12, **{field: 5})

    @pytest.mark.parametrize("spec, message", [
        (GeneratorSpec("cycle", n=1), "cycle needs n >= 2"),
        (GeneratorSpec("dag-layers", n=3), "dag-layers needs layers >= 2 and n >= layers"),
        (GeneratorSpec("random-gnm", n=1), "random-gnm needs n >= 2 and m >= 0"),
        (GeneratorSpec("scc-chain"), "scc-chain needs blocks >= 1 and block_size >= 2"),
        (GeneratorSpec("disjoint-paths", n=1), "disjoint-paths needs paths >= 1 and n >= paths"),
    ], ids=["cycle", "dag-layers", "random-gnm", "scc-chain", "disjoint-paths"])
    def test_builder_rejects_too_few_vertices_or_blocks(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(spec)


class TestFileIo:
    def test_graph_round_trip(self, tmp_path):
        g = generate(GeneratorSpec("random-gnm", n=16, m=40, big_n=5, seed=0))
        path = tmp_path / "g.txt"
        write_graph(g, path)
        back = read_graph(path)
        assert list(back.edges()) == list(g.edges())
        assert back.max_length_bound == g.max_length_bound

    @pytest.mark.parametrize("size", [0, 1, 200, 70_000])
    def test_writers_keep_the_per_line_format(self, tmp_path, size):
        rng = np.random.default_rng(size)
        t, h, w = (rng.integers(0, 10**6, size) for _ in range(3))
        g = DiGraph.from_arrays(10**6, t, h, w + 1)
        hopset = WeightedEdgeSet.from_arrays(t, h, w + 1)
        shortcut = EdgeSet.from_arrays(t, h)
        write_graph(g, tmp_path / "g.txt")
        write_weighted_edge_set(hopset, tmp_path / "h.txt")
        write_edge_set(shortcut, tmp_path / "s.txt")
        header = f"{g.vertex_count} {g.edge_count} {g.max_length_bound}\n"
        assert (tmp_path / "g.txt").read_text() == header + "".join(
            f"{a} {b} {c}\n" for a, b, c in g.edges()
        )
        assert (tmp_path / "h.txt").read_text() == "".join(
            f"{a} {b} {c}\n" for a, b, c in hopset
        )
        assert (tmp_path / "s.txt").read_text() == "".join(
            f"{a} {b}\n" for a, b in shortcut
        )

    @pytest.mark.parametrize("width", [2, 3])
    def test_lines_match_str_format_across_chunks(self, tmp_path, monkeypatch, width):
        monkeypatch.setattr(fileio, "_CHUNK", 3)
        values = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, -1, -10,
                  np.iinfo(np.int64).min, np.iinfo(np.int64).max]
        rng = np.random.default_rng(width)
        columns = [rng.permutation(np.array(values * 3, dtype=np.int64))
                   for _ in range(width)]
        fmt = " ".join(["{}"] * width) + "\n"
        path = tmp_path / "x.txt"
        fileio._write_lines(path, "header\n", *columns)
        expected = "header\n" + "".join(map(fmt.format, *(c.tolist() for c in columns)))
        assert path.read_bytes() == expected.encode("ascii")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 1 1\n")
        with pytest.raises(FormatError):
            read_graph(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 1\n0 1 1\n")
        with pytest.raises(FormatError):
            read_graph(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph file"),
        ("-1 0 1\n", "invalid header values"),
        ("3 0 0\n", "invalid header values"),
        ("2 1 1\n0 2 1\n", "vertex id out of range"),
        ("2 1 4\n0 1 5\n", r"edge length outside \[1, N\]"),
        ("2 1 4\n0 99999999999999999999 1\n", "line 2: field outside the int64 range"),
        ("99999999999999999999 0 1\n", "line 1: field outside the int64 range"),
        ("2 1 9223372036854775807\n0 1 -9223372036854775809\n",
         "line 2: field outside the int64 range"),
    ], ids=["empty", "negative-n", "N-0", "vertex-out-of-range", "length-above-N",
            "head-above-int64", "n-above-int64", "length-below-int64"])
    def test_graph_file_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            read_graph(path)

    @pytest.mark.parametrize("read, text, message", [
        (read_edge_set, "0 1\n\n1 2\n  \n", None),
        (read_weighted_edge_set, "\n0 1 4\n1 2 1\n", None),
        (read_edge_set, "0 1\n\n1 2 3\n", "line 3: expected 2 fields, got 3"),
        (read_weighted_edge_set, "0 1 1\n\n1 x 2\n", "line 3: non-integer field"),
        (read_weighted_edge_set, "0 1 1\n  \n\n1 2 0\n", "line 4: length 0 is below 1"),
        (read_edge_set, "0 1\n9223372036854775808 2\n", "line 2: field outside the int64 range"),
        (read_weighted_edge_set, "0 1 1\n\n1 2 99999999999999999999\n",
         "line 3: field outside the int64 range"),
    ], ids=["pairs", "triples", "field-count", "non-integer", "length-0", "pair-above-int64",
            "length-above-int64"])
    def test_edge_set_lines(self, tmp_path, read, text, message):
        # blank lines are skipped but still counted in the line numbers
        path = tmp_path / "e.txt"
        path.write_text(text)
        if message is None:
            assert [tuple(e)[:2] for e in read(path)] == [(0, 1), (1, 2)]
        else:
            with pytest.raises(FormatError, match=message):
                read(path)


class TestCliGen:
    def test_writes_identical_files_across_runs(self, tmp_path):
        args = [
            "gen", "--family", "random-gnm", "--n", "128", "--m", "512",
            "--N", "32", "--seed", "7",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_parameters_exit_two(self, tmp_path):
        assert main(["gen", "--family", "path", "--n", "0",
                     "--out", str(tmp_path / "x.txt")]) == 2

    def test_scc_chain_n_mismatch_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert main(["gen", "--family", "scc-chain", "--n", "100", "--blocks", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_flags_the_family_does_not_read_exit_two(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "--family", "path", "--n", "10", "--m", "50", "--blocks", "4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: path does not read m, blocks\n"
        assert not out.exists()


class TestCliDagReduce:
    def test_empty_graph_runs_no_iteration(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 0 1\n")
        assert main(["dag-reduce", str(graph), "--lambda", "4", "--h", "4",
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out.startswith("iterations=0 hopset=0 ")


class TestCliLdd:
    def test_summary_line_and_exit(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "200", "--out", str(graph)])
        capsys.readouterr()
        assert main(["ldd", str(graph), "--d", "40"]) == 0
        out = capsys.readouterr().out
        assert "components=" in out and "removed=" in out and "max_weak_diam=" in out

    def test_graph_above_ceiling_exits_two(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "4", "--out", str(graph)])
        capsys.readouterr()
        assert main(["ldd", str(graph), "--d", "4", "--ceiling", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCliLddPinned:
    """`ldd --json` output on cyclic inputs, d 8 and 16, seeds 0-2: sha256
    prefixes of [removed_edges, components], recorded from the
    implementation that seeded the CLI's decomposition through LddParams."""

    DIGESTS = {
        ("cycle", 8): ["3a7e46ebd163", "cb569cf17e7f", "407f0df4b31e"],
        ("cycle", 16): ["1d000a84cfc2", "2e848788bdac", "515aedb26a9b"],
        ("scc-chain", 8): ["d5bcb9ff9e3c", "f4afaec23900", "bf245c5a63be"],
        ("scc-chain", 16): ["24099d89e1f7", "32a64778322c", "48c35903f410"],
    }
    FLAGS = {
        "cycle": ["--n", "64"],
        "scc-chain": ["--blocks", "16", "--block-size", "4"],
    }

    @pytest.mark.parametrize("family, d", list(DIGESTS))
    def test_digests(self, tmp_path, capsys, family, d):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", family, *self.FLAGS[family], "--out", str(graph)])
        got = []
        for seed in range(3):
            capsys.readouterr()
            assert main(["ldd", str(graph), "--d", str(d), "--seed", str(seed), "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            key = json.dumps([doc["removed_edges"], doc["components"]])
            got.append(hashlib.sha256(key.encode()).hexdigest()[:12])
        assert got == self.DIGESTS[(family, d)]


class TestCliJson:
    """Under --json, stdout is one JSON document and nothing else."""

    @staticmethod
    def run_json(capsys, argv):
        capsys.readouterr()
        code = main(argv + ["--json"])
        return code, json.loads(capsys.readouterr().out)

    @pytest.fixture
    def graph(self, tmp_path):
        path = tmp_path / "g.txt"
        main(["gen", "--family", "scc-chain", "--blocks", "8", "--block-size", "3",
              "--out", str(path)])
        return path

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        code, doc = self.run_json(capsys, ["gen", "--family", "path", "--n", "5",
                                           "--out", str(out)])
        assert code == 0
        assert doc == {"path": str(out), "n": 5, "m": 4}

    @pytest.mark.parametrize("mode", ["hopset", "shortcut"])
    def test_reduce(self, tmp_path, capsys, graph, mode):
        code, doc = self.run_json(capsys, [
            "reduce", str(graph), "--mode", mode, "--lambda", "4", "--h", "4",
            "--reps", "1", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        assert doc == json.loads((tmp_path / "run" / "report.json").read_text())

    def test_ldd_round_trip_through_verify(self, tmp_path, capsys, graph):
        code, doc = self.run_json(capsys, ["ldd", str(graph), "--d", "2", "--trials", "3"])
        assert code == 0 and doc["passed"] is True
        assert {"removal_frequency_max", "removal_frequency_median"} <= set(doc)
        decomposition = tmp_path / "dec.json"
        decomposition.write_text(json.dumps(doc))
        code, report = self.run_json(capsys, [
            "verify", str(graph), "--kind", "ldd", "--decomposition", str(decomposition),
            "--d", "2",
        ])
        assert code == 0 and report["passed"] is True

    def test_dag_reduce_output_is_a_hopset_at_the_promised_stretch(
        self, tmp_path, capsys, graph
    ):
        # reduce_clustered_dag promises an (alpha, h)-hopset with
        # alpha = (1 + eps)^iterations
        run, eps = tmp_path / "run", Fraction(1, 2)
        code, doc = self.run_json(capsys, [
            "dag-reduce", str(graph), "--lambda", "4", "--h", "4", "--eps", str(eps),
            "--out-dir", str(run),
        ])
        assert code == 0
        iterations = len(doc["trace"]["iterations"])
        assert iterations > 1
        assert doc["path"] == str(run / "dag-hopset.txt")
        assert doc["hopset_size"] == len(read_weighted_edge_set(run / "dag-hopset.txt"))
        alpha = (1 + eps) ** iterations
        code, report = self.run_json(capsys, [
            "verify", str(graph), "--kind", "hopset", "--edges", doc["path"],
            "--alpha", str(alpha), "--h", "4",
        ])
        assert code == 0 and report["passed"] is True

    @pytest.mark.parametrize("kind, flag", [
        ("hopset", "--edges"), ("shortcut", "--edges"), ("ldd", "--decomposition"),
    ])
    def test_verify_without_its_input_file_exits_two(self, capsys, graph, kind, flag):
        with pytest.raises(SystemExit) as info:
            main(["verify", str(graph), "--kind", kind])
        assert info.value.code == 2
        assert f"{flag} is required" in capsys.readouterr().err


class TestCliReduce:
    def test_shortcut_mode_end_to_end(self, tmp_path):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "96", "--out", str(graph)])
        code = main([
            "reduce", str(graph), "--mode", "shortcut", "--lambda", "8",
            "--h", "8", "--reps", "2", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        assert (tmp_path / "run" / "shortcut.txt").exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "shortcut"
        assert len(manifest["input_sha256"]) == 64
        assert set(manifest["stage_seconds"]) == {"reduce", "verify"}

    def test_repeated_runs_write_identical_artifact_and_report(self, tmp_path):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "96", "--out", str(graph)])
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            assert main([
                "reduce", str(graph), "--mode", "shortcut", "--lambda", "8",
                "--h", "8", "--reps", "2", "--seed", "3", "--out-dir", str(run),
            ]) == 0
        for name in ("shortcut.txt", "report.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_hopset_mode_clamp_free(self, tmp_path):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "random-gnm", "--n", "48", "--m", "120",
              "--N", "8", "--seed", "7", "--out", str(graph)])
        code = main([
            "reduce", str(graph), "--mode", "hopset", "--lambda", "8",
            "--h", "8", "--eps", "1/2", "--reps", "2",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["clamp_count"] == 0
        assert report["verification"]["passed"] is True

    @pytest.mark.parametrize("mode, flag", [
        ("shortcut", "--ceiling=2"), ("hopset", "--ceiling=2"), ("hopset", "--no-verify"),
    ])
    def test_unverified_run_says_skipped(self, tmp_path, capsys, mode, flag):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "4", "--out", str(graph)])
        run = tmp_path / "run"
        assert main(["reduce", str(graph), "--mode", mode, "--lambda", "2", "--h", "2",
                     flag, "--out-dir", str(run)]) == 0
        assert "verified=skipped" in capsys.readouterr().out
        assert (run / f"{mode}.txt").exists()
        assert json.loads((run / "report.json").read_text())["verification"] is None

    @pytest.mark.parametrize("after, code", [("1 2 1\nfoo bar\n", 2), ("\n  \n", 0)],
                             ids=["edge-and-text", "blank"])
    def test_lines_after_the_promised_edges(self, tmp_path, capsys, after, code):
        # the header promises one edge: a line after it that is not blank
        # is not silently dropped
        graph = tmp_path / "g.txt"
        graph.write_text("3 1 1\n0 1 1\n" + after)
        assert main(["reduce", str(graph), "--lambda", "2", "--h", "2",
                     "--out-dir", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err.startswith("error: ") == (code == 2)

    def test_missing_graph_exits_two(self, tmp_path):
        assert main(["reduce", str(tmp_path / "none.txt"), "--mode", "shortcut",
                     "--lambda", "8", "--h", "8"]) == 2

    def test_shortcut_mode_rejects_the_hub_oracle(self, tmp_path, capsys):
        # shortcut mode has no hub oracle; running the exact one instead
        # would record an oracle that did not run
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "8", "--out", str(graph)])
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["reduce", str(graph), "--mode", "shortcut", "--oracle", "hub",
                     "--lambda", "4", "--h", "4", "--out-dir", str(run)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (run / "manifest.json").exists()


REDUCE = ["reduce", "{unit}", "--lambda", "4", "--h", "4", "--reps", "1"]


class TestCliBadValues:
    """Flag values the library rejects are usage errors (exit 2), not
    crashes or verification failures (exit 1)."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "path", "--n", "4", "--N", "0"],
        REDUCE + ["--lambda", "1"],
        REDUCE + ["--h", "0"],
        REDUCE + ["--eps", "0"],
        REDUCE + ["--reps", "0"],
        REDUCE + ["--reps", "-1"],
        REDUCE + ["--oracle", "hub", "--hub-rate", "2"],
        ["reduce", "{weighted}", "--mode", "shortcut", "--lambda", "4", "--h", "4"],
        ["ldd", "{unit}", "--d", "0"],
        ["ldd", "{unit}", "--d", "4", "--trials", "-1"],
        ["dag-reduce", "{unit}", "--lambda", "1", "--h", "4"],
        ["verify", "{unit}", "--kind", "hopset", "--edges", "{hopset}", "--h", "-1"],
        ["verify", "{weighted}", "--kind", "shortcut", "--edges", "{shortcut}"],
        ["verify", "{unit}", "--kind", "hopset", "--edges", "{hopset}", "--alpha", "1/2"],
        ["verify", "{unit}", "--kind", "ldd", "--decomposition", "{decomposition}",
         "--d", "-1"],
        ["verify", "{unit}", "--kind", "clustered", "--d", "-1"],
    ], ids=[
        "gen-N-0", "reduce-lambda-1", "reduce-h-0", "reduce-eps-0", "reduce-reps-0",
        "reduce-reps-minus-1", "reduce-hub-rate-2", "reduce-shortcut-weighted", "ldd-d-0",
        "ldd-trials-minus-1", "dag-reduce-lambda-1", "verify-hopset-h-minus-1",
        "verify-shortcut-weighted", "verify-hopset-alpha-half", "verify-ldd-d-minus-1",
        "verify-clustered-d-minus-1",
    ])
    def test_exits_two(self, tmp_path, capsys, argv):
        files = {name: str(tmp_path / f"{name}.txt")
                 for name in ("unit", "weighted", "hopset", "shortcut")}
        files["decomposition"] = str(tmp_path / "decomposition.json")
        main(["gen", "--family", "path", "--n", "8", "--out", files["unit"]])
        main(["gen", "--family", "random-gnm", "--n", "8", "--m", "16", "--N", "4",
              "--out", files["weighted"]])
        (tmp_path / "hopset.txt").write_text("0 2 2\n")
        (tmp_path / "shortcut.txt").write_text("0 2\n")
        (tmp_path / "decomposition.json").write_text(
            json.dumps({"removed_edges": [], "components": [[v] for v in range(8)]})
        )
        capsys.readouterr()
        argv = [arg.format(**files) for arg in argv]
        if argv[0] in ("gen", "dag-reduce", "reduce"):
            argv += ["--out-dir", str(tmp_path / "run")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "{huge}", "--kind", "clustered"],
        ["verify", "{unit}", "--kind", "hopset", "--edges", "{huge_edges}"],
        ["gen", "--family", "path", "--n", "4", "--out", "{missing}/x.txt"],
        ["reduce", "{unit}", "--mode", "shortcut", "--lambda", "4", "--h", "4",
         "--out-dir", "{unit}"],
    ], ids=["graph-above-int64", "edges-above-int64", "gen-out-in-missing-dir",
            "reduce-out-dir-is-a-file"])
    def test_bad_files_exit_two(self, tmp_path, capsys, argv):
        """A number outside int64 in an input file, and an output path that
        cannot be written, are usage errors reported without a traceback."""
        files = {name: tmp_path / f"{name}.txt" for name in ("unit", "huge", "huge_edges")}
        main(["gen", "--family", "path", "--n", "8", "--out", str(files["unit"])])
        files["huge"].write_text("2 1 1\n0 99999999999999999999 1\n")
        files["huge_edges"].write_text("0 1 1\n0 99999999999999999999 1\n")
        files["missing"] = tmp_path / "missing"
        capsys.readouterr()
        argv = [arg.format(**files) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not files["missing"].exists()

    def test_eps_that_is_not_a_number(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "8", "--out", str(graph)])
        capsys.readouterr()
        argv = [arg.format(unit=graph) for arg in REDUCE]
        assert main(argv + ["--eps", "x", "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: not a rational number: 'x'\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "g.txt", "--kind", "clustered", "--seed", "1"],
        ["verify", "g.txt", "--kind", "clustered", "--out-dir", "x"],
        ["ldd", "g.txt", "--d", "4", "--out-dir", "x"],
        ["ldd", "g.txt", "--d", "4", "--c", "2"],
    ], ids=["verify-seed", "verify-out-dir", "ldd-out-dir", "ldd-c"])
    def test_flag_the_subcommand_does_not_read(self, capsys, argv):
        # a subcommand declares only the flags it reads
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCliVerify:
    def test_injected_failure_exits_one(self, tmp_path):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "96", "--out", str(graph)])
        run_dir = tmp_path / "run"
        main(["reduce", str(graph), "--mode", "shortcut", "--lambda", "8",
              "--h", "8", "--reps", "2", "--out-dir", str(run_dir)])
        shortcut = read_edge_set(run_dir / "shortcut.txt")
        # drop half the shortcut edges and expect the verifier to object
        half = len(shortcut) // 2
        crippled = tmp_path / "half.txt"
        write_edge_set(
            type(shortcut).from_arrays(shortcut.tails[:half], shortcut.heads[:half]),
            crippled,
        )
        code = main(["verify", str(graph), "--kind", "shortcut",
                     "--edges", str(crippled), "--h", "8"])
        assert code == 1

    def test_intact_artifact_exits_zero(self, tmp_path):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "96", "--out", str(graph)])
        run_dir = tmp_path / "run"
        main(["reduce", str(graph), "--mode", "shortcut", "--lambda", "8",
              "--h", "8", "--reps", "2", "--out-dir", str(run_dir)])
        code = main(["verify", str(graph), "--kind", "shortcut",
                     "--edges", str(run_dir / "shortcut.txt"), "--h", "8"])
        assert code == 0

    def test_graph_above_ceiling_exits_two(self, tmp_path, capsys):
        graph, edges = tmp_path / "g.txt", tmp_path / "s.txt"
        main(["gen", "--family", "path", "--n", "4", "--out", str(graph)])
        edges.write_text("0 2\n")
        assert main(["verify", str(graph), "--kind", "shortcut", "--edges", str(edges),
                     "--h", "2", "--ceiling", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_clustered_kind(self, tmp_path):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "scc-chain", "--blocks", "4",
              "--block-size", "3", "--out", str(graph)])
        assert main(["verify", str(graph), "--kind", "clustered", "--d", "2"]) == 0
        assert main(["verify", str(graph), "--kind", "clustered", "--d", "1"]) == 1

    def test_empty_component_exits_one(self, tmp_path, capsys):
        graph, decomposition = tmp_path / "g.txt", tmp_path / "d.json"
        main(["gen", "--family", "cycle", "--n", "4", "--out", str(graph)])
        decomposition.write_text('{"removed_edges": [], "components": [[0, 1, 2, 3], []]}')
        capsys.readouterr()
        assert main(["verify", str(graph), "--kind", "ldd", "--decomposition",
                     str(decomposition), "--d", "4"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["violations"][0]["kind"] == "not-a-partition"
        assert err == ""

    @pytest.mark.parametrize(
        "args, text",
        [
            (["--kind", "shortcut", "--edges", "missing.txt"], None),
            (["--kind", "shortcut", "--edges", "edges.txt"], "0 9\n"),
            (["--kind", "hopset", "--edges", "edges.txt"], "0 9 1\n"),
            (["--kind", "hopset", "--edges", "edges.txt"], "0 2 0\n"),
            (["--kind", "hopset", "--edges", "edges.txt"], "0 2 -3\n"),
            (["--kind", "ldd", "--decomposition", "missing.json"], None),
            (["--kind", "ldd", "--decomposition", "d.json"], '{"removed_edges": [],'),
            (["--kind", "ldd", "--decomposition", "d.json"], '{"removed_edges": []}'),
            (["--kind", "ldd", "--decomposition", "d.json"],
             '{"removed_edges": [], "components": [[0.9], [1], [2], [3]]}'),
            (["--kind", "ldd", "--decomposition", "d.json"],
             '{"removed_edges": [], "components": [["0"], [1], [2], [3]]}'),
            (["--kind", "ldd", "--decomposition", "d.json"],
             '{"removed_edges": [], "components": [[0], [true], [2], [3]]}'),
            (["--kind", "ldd", "--decomposition", "d.json"],
             '{"removed_edges": [0.5], "components": [[0], [1], [2], [3]]}'),
        ],
        ids=["missing-edges", "shortcut-vertex-9", "hopset-vertex-9", "hopset-length-0",
             "hopset-length-minus-3", "missing-decomposition", "malformed-json",
             "missing-key", "float-vertex", "string-vertex", "bool-vertex", "float-edge"],
    )
    def test_bad_input_file_exits_two(self, tmp_path, capsys, args, text):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "4", "--out", str(graph)])
        if text is not None:
            (tmp_path / args[-1]).write_text(text)
        path = str(tmp_path / args[-1])
        assert main(["verify", str(graph), *args[:-1], path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
