"""Tests for the command-line interface (repro.cli)."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, load_alignment, main
from repro.datasets import test_dataset as make_test_dataset
from repro.seq.io_phylip import write_phylip


class TestParser:
    def test_raxml_style_flags(self):
        args = build_parser().parse_args(
            ["-s", "x.phy", "-m", "GTRCAT", "-N", "100", "-p", "12345",
             "-x", "12345", "-f", "a", "-np", "10", "-T", "8"]
        )
        assert args.alignment == "x.phy"
        assert args.bootstraps == 100
        assert args.processes == 10
        assert args.threads == 8

    def test_defaults(self):
        args = build_parser().parse_args(["--simulate", "6", "80"])
        assert args.model == "GTRCAT"
        assert args.seed_p == 12345
        assert args.machine == "dash"

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["-m", "WAG"])

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["-f", "z"])


#: Run in a fresh interpreter whose imports of ``scipy`` fail: a ``-f a``
#: analysis and a GTRGAMMAI ``-f e`` model optimisation (Γ shape, +I and
#: GTR rates), then exit non-zero if any ``scipy*`` module got loaded.
_NO_SCIPY_RUN = """
import sys
sys.path.insert(0, {src!r})

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked on the analysis path")

sys.meta_path.insert(0, NoScipy())
from repro.cli import main

out = {out!r}
main(["--simulate", "6", "60", "-f", "a", "-N", "2", "-np", "2", "-T", "2",
      "--quick", "-n", "a", "-w", out])
main(["--simulate", "6", "60", "-f", "e", "-m", "GTRGAMMAI",
      "-t", out + "/RAxML_bestTree.a.nwk", "-n", "e", "-w", out])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy modules loaded: {{loaded}}" if loaded else 0)
"""


#: Modules no ``-f a`` run executes, none of which ``import repro.cli``
#: may load (the analysis path's imports).
_NOT_ON_THE_ANALYSIS_PATH = (
    "repro.perfmodel.sweep", "repro.perfmodel.advisor", "repro.perfmodel.memory",
    "repro.datasets.generator", "repro.hybrid.analyses", "repro.chaos",
    "repro.sched.queue", "repro.sched.stealing", "repro.search.nni",
    "repro.seq.io_fasta", "multiprocessing",
)

_CLI_IMPORTS = """
import sys
sys.path.insert(0, {src!r})
import repro.cli

loaded = [m for m in {modules!r} if m in sys.modules]
if loaded:
    sys.exit(f"import repro.cli loaded {{loaded}}")
repro.cli.main(["--simulate", "6", "60", "-f", "a", "-N", "2", "-np", "2",
                "-T", "2", "--quick", "-n", "a", "-w", {out!r}])
if "multiprocessing" in sys.modules:
    sys.exit("a -np 2 run loaded multiprocessing")
"""

#: Run ``HybridConfig`` keyword sets in order in one one-rank world each,
#: after ``import repro.cli``, and fail naming every module a rank body
#: imported first.
_RANK_IMPORTS = """
import sys
sys.path.insert(0, {src!r})
import repro.cli
from repro.datasets import test_dataset
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi import launcher
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams

first = []
rank_body = launcher._rank_body


def probed(fn, shared):
    body = rank_body(fn, shared)

    def run(comm, view):
        before = set(sys.modules)
        try:
            return body(comm, view)
        finally:
            first.extend(sorted(set(sys.modules) - before))

    return run


launcher._rank_body = probed
pal, _ = test_dataset(n_taxa=6, n_sites=60, seed=301)
quick = ComprehensiveConfig(n_bootstraps=4, stage_params=StageParams(
    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1, thorough_max_rounds=1,
    brlen_passes=1))
for kwargs in {runs!r}:
    run_hybrid_analysis(pal, HybridConfig(
        n_processes=1, n_threads=2, comprehensive=quick, **kwargs))
sys.exit(f"first imported inside a rank: {{first}}" if first else 0)
"""

#: Every package's ``__all__`` resolves and is listed by ``dir()``; an
#: unknown name raises ``AttributeError``.
_PACKAGE_EXPORTS = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import repro

packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
wrong = []
for name in packages:
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        getattr(package, export)
        if export not in listed:
            wrong.append(f"dir({{name}}) lacks {{export}}")
    try:
        package.no_such_name
    except AttributeError:
        pass
    else:
        wrong.append(f"{{name}}.no_such_name resolved")
print(len(packages))
sys.exit("; ".join(wrong) if wrong else 0)
"""


def _fresh(script: str, **fields) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter (in-suite, ``sys.modules``
    already holds everything); fails on a non-zero exit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script.format(src=src, **fields)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


class TestImportCost:
    def test_analysis_runs_without_scipy(self, tmp_path):
        """SciPy is about half of the CLI's interpreter start; nothing an
        analysis runs needs it (only the offline perfmodel calibration)."""
        proc = _fresh(_NO_SCIPY_RUN, out=str(tmp_path))
        assert "evaluated fixed topology" in proc.stdout

    def test_cli_loads_only_the_analysis_path(self, tmp_path):
        """The command line's start compiles no module a ``-f a`` run
        does not execute, and a multi-rank run needs no multiprocessing."""
        _fresh(_CLI_IMPORTS, modules=_NOT_ON_THE_ANALYSIS_PATH, out=str(tmp_path))

    @pytest.mark.parametrize("runs", [
        pytest.param([{"collect_trace": True, "checkpoint_dir": "{ck}"},
                      {"collect_trace": True, "checkpoint_dir": "{ck}",
                       "resume": True}], id="static-resume"),
        pytest.param([{"schedule": "work-steal", "checkpoint_dir": "{ck}"}],
                     id="work-steal"),
        pytest.param([{"bootstopping": True}], id="bootstopping"),
    ])
    def test_no_module_is_first_imported_in_a_rank(self, runs, tmp_path):
        """Every module a rank runs is imported before the fork: one
        first imported inside a rank is compiled again by every rank."""
        runs = [
            {k: v.format(ck=str(tmp_path)) if isinstance(v, str) else v
             for k, v in kwargs.items()}
            for kwargs in runs
        ]
        _fresh(_RANK_IMPORTS, runs=runs)

    def test_package_exports_resolve(self):
        proc = _fresh(_PACKAGE_EXPORTS)
        assert int(proc.stdout) >= 16


class TestLoadAlignment:
    def test_simulate(self):
        args = build_parser().parse_args(["--simulate", "6", "50"])
        pal = load_alignment(args)
        assert pal.n_taxa == 6
        assert pal.n_sites == 50

    def test_missing_input_errors(self):
        args = build_parser().parse_args([])
        with pytest.raises(SystemExit):
            load_alignment(args)

    def test_missing_file_errors(self):
        args = build_parser().parse_args(["-s", "/does/not/exist.phy"])
        with pytest.raises(SystemExit):
            load_alignment(args)

    def test_phylip_file(self, tmp_path):
        pal, _ = make_test_dataset(n_taxa=5, n_sites=40, seed=1)
        path = tmp_path / "in.phy"
        write_phylip(pal.expand(), path)
        args = build_parser().parse_args(["-s", str(path)])
        loaded = load_alignment(args)
        assert loaded.n_taxa == 5

    def test_fasta_file(self, tmp_path):
        from repro.seq.io_fasta import write_fasta

        pal, _ = make_test_dataset(n_taxa=5, n_sites=40, seed=1)
        path = tmp_path / "in.fasta"
        write_fasta(pal.expand(), path)
        args = build_parser().parse_args(["-s", str(path)])
        assert load_alignment(args).n_taxa == 5

    @pytest.mark.parametrize("files, argv, message", [
        pytest.param({}, ["--simulate", "3", "20"],
                     "--simulate 3 20: need at least 4 taxa", id="few-taxa"),
        pytest.param({}, ["--simulate", "5", "0"],
                     "--simulate 5 0: need at least 1 site", id="no-sites"),
        pytest.param({"in.phy": "garbage\nA ACGT\n"}, ["-s", "in.phy"],
                     "in.phy: bad PHYLIP header: 'garbage'", id="phylip-header"),
        pytest.param({"in.phy": "3 10\nA ACGTACGTAC\nB ACGTAC\nC ACGTACGTAC\n"},
                     ["-s", "in.phy"],
                     "in.phy: taxon 'B' has 6 characters, header says 10",
                     id="phylip-short"),
        pytest.param({"t.nwk": "((A,B),(C,"},
                     ["-f", "e", "-s", "ok.phy", "-t", "t.nwk"],
                     "t.nwk: unexpected end of Newick string",
                     id="newick-truncated"),
        pytest.param({"t.nwk": "((A,B),(C,X));"},
                     ["-f", "e", "-s", "ok.phy", "-t", "t.nwk"],
                     "t.nwk: leaf 'X' not in the given taxon set",
                     id="newick-foreign-taxon"),
    ])
    def test_malformed_inputs_are_one_line_errors(
        self, files, argv, message, tmp_path, monkeypatch
    ):
        """An input the simulator or a reader rejects exits with one line
        naming the file (or the ``--simulate`` values) and the reason."""
        monkeypatch.chdir(tmp_path)
        files = {"ok.phy": "4 8\nA ACGTACGT\nB ACGTACGA\nC ACGAACGT\n"
                           "D ACTTACGT\n", **files}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit, match=re.escape(message)) as exc:
            main(argv + ["-w", str(tmp_path)])
        assert "\n" not in exc.value.code


class TestOtherAlgorithms:
    def test_multistart_mode(self, tmp_path, capsys):
        rc = main(
            ["--simulate", "5", "50", "-f", "d", "-N", "2", "-np", "2",
             "--quick", "-n", "ms", "-w", str(tmp_path)]
        )
        assert rc == 0
        assert "multiple ML searches" in capsys.readouterr().out
        assert (tmp_path / "RAxML_bestTree.ms.nwk").exists()

    def test_standard_bootstrap_mode(self, tmp_path, capsys):
        rc = main(
            ["--simulate", "5", "50", "-b", "777", "-N", "2", "-np", "2",
             "--quick", "-n", "sb", "-w", str(tmp_path)]
        )
        assert rc == 0
        assert "standard bootstrap" in capsys.readouterr().out
        trees = (tmp_path / "RAxML_bootstrap.sb.nwk").read_text().strip().splitlines()
        assert len(trees) == 2

    def test_evaluate_mode(self, tmp_path, capsys):
        # First produce a tree, then score it under -f e.
        main(["--simulate", "5", "50", "-f", "d", "-N", "1", "--quick",
              "-n", "src", "-w", str(tmp_path)])
        capsys.readouterr()
        rc = main(
            ["--simulate", "5", "50", "-f", "e",
             "-t", str(tmp_path / "RAxML_bestTree.src.nwk"),
             "-n", "ev", "-w", str(tmp_path)]
        )
        assert rc == 0
        assert "evaluated fixed topology" in capsys.readouterr().out
        assert (tmp_path / "RAxML_result.ev.nwk").exists()

    def test_evaluate_gtrgammai(self, tmp_path, capsys):
        main(["--simulate", "5", "50", "-f", "d", "-N", "1", "--quick",
              "-n", "srcI", "-w", str(tmp_path)])
        capsys.readouterr()
        rc = main(
            ["--simulate", "5", "50", "-f", "e", "-m", "GTRGAMMAI",
             "-t", str(tmp_path / "RAxML_bestTree.srcI.nwk"),
             "-n", "evI", "-w", str(tmp_path)]
        )
        assert rc == 0
        assert "p-invariant" in capsys.readouterr().out

    def test_evaluate_requires_tree(self, tmp_path):
        with pytest.raises(SystemExit, match="-t"):
            main(["--simulate", "5", "50", "-f", "e", "-w", str(tmp_path)])

    def test_evaluate_missing_tree_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["--simulate", "5", "50", "-f", "e", "-t", "/nope.nwk",
                  "-w", str(tmp_path)])


class TestMainEndToEnd:
    def test_full_run_writes_outputs(self, tmp_path, capsys):
        rc = main(
            ["--simulate", "5", "60", "-N", "2", "-np", "2", "-T", "1",
             "--quick", "-n", "t1", "-w", str(tmp_path), "-J", "MRE"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Final GAMMA log-likelihood" in out
        assert (tmp_path / "RAxML_bestTree.t1.nwk").exists()
        assert (tmp_path / "RAxML_bipartitions.t1.nwk").exists()
        # -J MRE writes a consensus tree; the info JSON is always written.
        assert (tmp_path / "RAxML_MajorityRuleConsensusTree.t1.nwk").exists()
        import json

        report = json.loads((tmp_path / "RAxML_info.t1.json").read_text())
        assert report["schedule"]["n_processes"] == 2
        # The best tree parses back.
        from repro.tree.newick import parse_newick

        tree = parse_newick((tmp_path / "RAxML_bestTree.t1.nwk").read_text())
        tree.validate()


class TestValidateArgs:
    """The up-front flag-combination sweep (repro.cli.validate_args)."""

    def _args(self, extra):
        return build_parser().parse_args(["--simulate", "5", "50"] + extra)

    def test_resume_requires_checkpoint_dir(self):
        from repro.cli import validate_args

        with pytest.raises(SystemExit, match="checkpoint-dir"):
            validate_args(self._args(["--resume"]))
        validate_args(self._args(["--resume", "--checkpoint-dir", "/tmp/ck"]))

    def test_tree_only_for_evaluate(self):
        from repro.cli import validate_args

        with pytest.raises(SystemExit, match="-f e"):
            validate_args(self._args(["-t", "x.nwk"]))
        with pytest.raises(SystemExit, match="-f e"):
            validate_args(self._args(["-f", "d", "-t", "x.nwk"]))
        validate_args(self._args(["-f", "e", "-t", "x.nwk"]))

    def test_evaluate_requires_tree(self):
        from repro.cli import validate_args

        with pytest.raises(SystemExit, match="-t"):
            validate_args(self._args(["-f", "e"]))

    def test_bootstopping_needs_static_schedule(self):
        from repro.cli import validate_args

        with pytest.raises(SystemExit, match="schedule"):
            validate_args(
                self._args(["--bootstopping", "--schedule", "work-steal"])
            )

    @pytest.mark.parametrize("extra, match", [
        (["-np", "0"], "n_processes"),
        (["-T", "0"], "n_threads"),
        (["-T", "9"], "T=9 is impossible"),
        (["--machine", "bogus"], "unknown machine 'bogus'"),
        (["-f", "d", "-N", "1", "--machine", "bogus"], "unknown machine 'bogus'"),
        (["-b", "7", "-N", "1", "--machine", "bogus"], "unknown machine 'bogus'"),
        (["-f", "d", "-N", "1", "-T", "100"], "-T 100"),
        (["-b", "7", "-N", "1", "-np", "0"], "-np 0"),
    ])
    def test_config_errors_are_cli_errors(self, extra, match):
        """A value the configs, the machine table or the launcher reject
        exits with a one-line message naming it, not a traceback."""
        with pytest.raises(SystemExit, match=match):
            main(["--simulate", "5", "50", "--quick"] + extra)

    @pytest.mark.parametrize("extra", [
        ["--machine", "Dash"],
        ["-f", "d", "--machine", "Triton PDAF", "-T", "32"],
        ["-f", "e", "-t", "x.nwk", "--machine", "DASH"],
    ])
    def test_machine_names_are_case_insensitive(self, extra):
        from repro.cli import validate_args

        validate_args(self._args(extra))

    @pytest.mark.parametrize("gone", [
        ["--comm-channels", "2"], ["--simulate-seed", "1"],
        ["--quorum", "0.5"], ["--kernel", "batched"],
    ])
    def test_removed_flags_are_usage_errors(self, gone, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--simulate", "5", "50", "--quick"] + gone)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["-np", "4"], ["-T", "64"], ["--machine", "bogus"], ["-N", "7"],
        ["--quick"],
    ], ids=lambda extra: extra[0].lstrip("-"))
    def test_evaluate_rejects_search_flags(self, extra):
        """-f e scores one tree in one process: a flag only the searches
        consume is refused, not silently dropped."""
        from repro.cli import validate_args

        with pytest.raises(SystemExit,
                           match=re.escape(extra[0]) + ": only .* -f e would"):
            validate_args(self._args(["-f", "e", "-t", "x.nwk"] + extra))

    def test_comprehensive_only_flags_rejected_elsewhere(self):
        from repro.cli import validate_args

        for extra in (
            ["-f", "d", "--bootstopping"],
            ["-f", "d", "--checkpoint-dir", "/tmp/ck"],
            ["-f", "e", "-t", "x.nwk", "--trace", "t.json"],
            ["-f", "e", "-t", "x.nwk", "--metrics-out", "m.json"],
            ["-b", "777", "-J", "MR"],
            ["-b", "777", "--schedule", "work-steal"],
            ["-b", "777", "--clv-cache"],
        ):
            with pytest.raises(SystemExit, match="comprehensive"):
                validate_args(self._args(extra))
        # The same flags are fine for the comprehensive analysis.
        validate_args(self._args(["--schedule", "work-steal", "-J", "MR"]))
        # -f e consumes the CLV-cache option.
        validate_args(self._args(["-f", "e", "-t", "x.nwk", "--clv-cache"]))
