"""The package root's names: the list README promises, and the names that
the benchmark and the digest tool import from it.

bench/tracer.py's HOOKS table is pinned by
test_harness.py::test_tracer_hooks_name_harness_attributes.
"""
import ast
import importlib
import inspect
from pathlib import Path

import reinit_lab

ROOT = Path(__file__).resolve().parents[1]
ROOT_IMPORTERS = ("bench/workloads.py", "bench/child.py", "tools/run_digests.py")
MODEL_MODULES = ("nn", "reinit", "distill", "runio", "harness")


def readme_exports() -> list[str]:
    """The names in the text block that follows README's "Public API" paragraph."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("**Public API.**"))
    fence = next(i for i in range(start, len(lines)) if lines[i] == "```text")
    end = lines.index("```", fence + 1)
    return " ".join(lines[fence + 1 : end]).split()


def root_imports(path: Path) -> list[str]:
    """Every name that path imports with ``from reinit_lab import ...``, read without running it."""
    tree = ast.parse(path.read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "reinit_lab" and node.level == 0
        for alias in node.names
    ]


def test_exports_are_the_list_in_readme():
    assert reinit_lab.__all__ == readme_exports()
    assert len(reinit_lab.__all__) == len(set(reinit_lab.__all__)) == 25
    assert all(hasattr(reinit_lab, name) for name in reinit_lab.__all__)


def test_bench_and_tools_root_imports_resolve():
    for rel in ROOT_IMPORTERS:
        names = root_imports(ROOT / rel)
        assert names, f"{rel} imports nothing from reinit_lab"
        missing = [name for name in names if not hasattr(reinit_lab, name)]
        assert missing == [], f"{rel}: {missing}"


def annotated_types(fn) -> set[str]:
    """The class names in fn's parameter annotations, which stay strings:
    every module defers annotations."""
    params = inspect.signature(fn).parameters.values()
    return {part for p in params if isinstance(p.annotation, str) for part in p.annotation.split(" | ")}


def test_no_function_takes_the_model_in_parts():
    """A ParamVector carries its network and frozen norm: no function or
    method (a dataclass's __init__ too) takes either beside one."""
    offenders = []
    for name in MODEL_MODULES:
        module = importlib.import_module(f"reinit_lab.{name}")
        own = [obj for obj in vars(module).values() if getattr(obj, "__module__", None) == module.__name__]
        for obj in own:
            for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                fn = getattr(fn, "__func__", fn)  # a static method's function
                kinds = annotated_types(fn) if inspect.isfunction(fn) else set()
                if "ParamVector" in kinds and kinds & {"NetworkSpec", "FrozenNormLayer"}:
                    offenders.append(f"{name}.{fn.__qualname__}")
    assert offenders == []


def test_step_functions_write_into_the_buffers_they_are_given():
    """The training step's functions have one mode: they write into the run's
    buffers, take each one as a required argument and return none of them."""
    from reinit_lab.nn import loss_grad_logits
    from reinit_lab.optim import sgd_step
    from reinit_lab.reinit import layerwise_reinit

    signatures = {fn.__name__: inspect.signature(fn) for fn in (loss_grad_logits, sgd_step, layerwise_reinit)}
    assert list(signatures["loss_grad_logits"].parameters)[:4] == ["params", "inputs", "labels", "grad"]
    assert list(signatures["sgd_step"].parameters) == ["params", "spare", "state", "lr", "step"]
    assert list(signatures["layerwise_reinit"].parameters)[:2] == ["theta", "fresh"]
    for name, sig in signatures.items():
        optional = [p.name for p in sig.parameters.values() if p.default is not inspect.Parameter.empty]
        assert optional == (["teacher", "beta_distill"] if name == "loss_grad_logits" else []), name
    assert signatures["loss_grad_logits"].return_annotation == "tuple[float, np.ndarray]"
    assert signatures["sgd_step"].return_annotation == signatures["layerwise_reinit"].return_annotation == "None"


def test_a_run_takes_no_input_beside_its_config():
    """run_experiment reads everything about a run from its config: the data
    bundle is prepare_data(cfg) passed in, and out_dir only says where."""
    from reinit_lab import run_experiment

    assert list(inspect.signature(run_experiment).parameters) == ["cfg", "bundle", "out_dir"]
