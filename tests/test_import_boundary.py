"""The import boundary: a process loads only the modules it uses.

``repro``, ``repro.core`` and ``repro.trace`` resolve each exported name on
first use, and ``repro.experiments`` registers its scenario adapters on the
first lookup, so importing the candidate layer, the trace stack or the
experiment layer loads no other section of the paper, and a trace replay
loads no numpy. Each test runs a fresh interpreter, because this one has
already imported everything the other tests use.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COUNTING_TRACE = Path(__file__).resolve().parent / "goldens" / "counting.trace"
PACKAGES = ("repro", "repro.core", "repro.trace")

#: Subpackages that importing the candidate layer, the trace stack and the
#: experiment layer must not load (the adapters of the registered
#: scenarios live in five of them).
UNUSED = (
    "population",
    "machines",
    "constructors",
    "replication",
    "faults",
    "sync",
    "hybrid",
    "viz",
    "protocols",
    "analysis",
)


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter and decode the JSON it prints."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_core_trace_and_experiments_load_no_other_section():
    loaded = _fresh(
        """
        import json, sys
        import repro.core.candidates, repro.trace, repro.experiments
        print(json.dumps(sorted(sys.modules)))
        """
    )
    stray = [
        name
        for name in loaded
        if name.startswith("repro.") and name.split(".")[1] in UNUSED
    ]
    assert stray == []
    assert "repro.trace.goldens" not in loaded


def test_replay_loads_neither_numpy_nor_goldens():
    seen = _fresh(
        f"""
        import json, sys
        from repro.trace import replay_trace
        result = replay_trace({str(COUNTING_TRACE)!r}, verify=True)
        print(json.dumps([result.verified, result.events,
                          "numpy" in sys.modules,
                          "repro.trace.goldens" in sys.modules]))
        """
    )
    assert seen == [True, 78, False, False]


def test_every_export_resolves_to_its_owner():
    report = _fresh(
        f"""
        import importlib, json, sys
        report = {{}}
        for package in {PACKAGES!r}:
            module = importlib.import_module(package)
            listed = set(dir(module))
            rows = {{}}
            for name in module.__all__:
                value = getattr(module, name)
                # Every submodule that binds the name to this very object.
                owners = sorted(
                    sub
                    for sub, mod in list(sys.modules.items())
                    if sub.startswith(package + ".")
                    and vars(mod).get(name) is value
                )
                rows[name] = [name in listed, owners,
                              getattr(value, "__module__", None)]
            try:
                getattr(module, "no_such_name")
                unknown = None
            except AttributeError as exc:
                unknown = str(exc)
            report[package] = [rows, unknown]
        print(json.dumps(report))
        """
    )
    for package in PACKAGES:
        rows, unknown = report[package]
        assert unknown == f"module {package!r} has no attribute 'no_such_name'"
        for name, (listed, owners, defined_in) in rows.items():
            assert listed, f"dir({package}) omits {name}"
            assert owners, f"{package}.{name} is bound by none of its modules"
            if defined_in is not None and defined_in.startswith("repro."):
                # A class or function: the module that defines it binds it.
                assert defined_in in owners, (package, name, owners)


def test_submodule_attribute_imports_it():
    seen = _fresh(
        """
        import json, sys
        import repro
        before = "repro.trace.goldens" in sys.modules
        specs = repro.trace.goldens.GOLDENS
        print(json.dumps([before, "repro.trace.goldens" in sys.modules,
                          len(specs) > 0, repro.core.world.__name__]))
        """
    )
    assert seen == [False, True, True, "repro.core.world"]
