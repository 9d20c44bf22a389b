"""Generators and the command-line front end."""

import json

import numpy as np
import pytest

from shallowcut import (
    DiGraph,
    EdgeSet,
    GeneratorSpec,
    WeightedEdgeSet,
    dist_all_pairs,
    generate,
    scc_topological,
)
from shallowcut.cli import main
from shallowcut.fileio import (
    FormatError,
    read_edge_set,
    read_graph,
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

    def test_missing_graph_exits_two(self, tmp_path):
        assert main(["reduce", str(tmp_path / "none.txt"), "--mode", "shortcut",
                     "--lambda", "8", "--h", "8"]) == 2


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

    @pytest.mark.parametrize(
        "args, text",
        [
            (["--kind", "shortcut", "--edges", "missing.txt"], None),
            (["--kind", "shortcut", "--edges", "edges.txt"], "0 9\n"),
            (["--kind", "hopset", "--edges", "edges.txt"], "0 9 1\n"),
            (["--kind", "ldd", "--decomposition", "missing.json"], None),
            (["--kind", "ldd", "--decomposition", "d.json"], '{"removed_edges": [],'),
            (["--kind", "ldd", "--decomposition", "d.json"], '{"removed_edges": []}'),
        ],
        ids=["missing-edges", "shortcut-vertex-9", "hopset-vertex-9",
             "missing-decomposition", "malformed-json", "missing-key"],
    )
    def test_bad_input_file_exits_two(self, tmp_path, capsys, args, text):
        graph = tmp_path / "g.txt"
        main(["gen", "--family", "path", "--n", "4", "--out", str(graph)])
        if text is not None:
            (tmp_path / args[-1]).write_text(text)
        path = str(tmp_path / args[-1])
        assert main(["verify", str(graph), *args[:-1], path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
