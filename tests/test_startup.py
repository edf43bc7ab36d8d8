"""What a process loads: ``import qcmap`` loads no submodule, and the
solve path of the CLI never loads the benchmark, the gadgets or the
subcircuit definitions.  Each check runs in a fresh interpreter, since
this one has long since loaded everything."""

import ast
import subprocess
import sys
import textwrap


def run_fresh(code: str):
    """Run ``code`` in a new interpreter and return the literal it prints."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout)


def test_import_loads_only_the_package():
    added = run_fresh("""
        import sys
        bare = set(sys.modules)
        import qcmap
        print(sorted(set(sys.modules) - bare))
    """)
    assert added == ["qcmap"]


def test_cli_solve_leaves_bench_gadgets_and_subcircuits_unloaded(tmp_path):
    (tmp_path / "c.qc").write_text("qubits 3\ncx 0 1\ncx 1 2\ncx 0 2\n")
    (tmp_path / "g.cg").write_text("nodes 3\nedge 0 1\nedge 1 2\n")
    out = run_fresh(f"""
        import contextlib, io, sys
        from qcmap import cli
        d = {str(tmp_path)!r}
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(["solve", "--circuit", d + "/c.qc", "--graph", d + "/g.cg",
                             "--plan", d + "/c.plan"])
        print([code, printed.getvalue(), sorted(sys.modules)])
    """)
    code, printed, modules = out
    assert (code, printed) == (0, "1\n")
    assert (tmp_path / "c.plan").exists()
    assert "qcmap.mapper" in modules and "qcmap.oracle" in modules
    for name in ("qcmap.bench", "qcmap.gadgets", "qcmap.subcircuits"):
        assert name not in modules


def test_every_export_resolves_to_its_submodule():
    problems = run_fresh("""
        import importlib
        import qcmap
        problems = [f"{name} not in dir" for name in set(qcmap.__all__) - set(dir(qcmap))]
        for name in qcmap.__all__:
            module = importlib.import_module(f"qcmap.{qcmap._MODULE_OF[name]}")
            if getattr(qcmap, name) is not getattr(module, name):
                problems.append(name)
            if vars(qcmap).get(name) is not getattr(module, name):
                problems.append(name + " not kept")
        space = {}
        exec("from qcmap import *", space)
        problems += [f"{name} not starred" for name in set(qcmap.__all__) - set(space)]
        print(problems)
    """)
    assert problems == []


def test_unknown_name_raises_attribute_error():
    out = run_fresh("""
        import qcmap
        try:
            qcmap.nope
        except AttributeError as exc:
            message = str(exc)
        print([message, hasattr(qcmap, "nope")])
    """)
    assert out == ["module 'qcmap' has no attribute 'nope'", False]
