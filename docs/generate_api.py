#!/usr/bin/env python3
"""Generate docs/api.md from the public API's docstrings.

Walks ``repro.__all__`` (and each subpackage's ``__all__``), emitting a
markdown reference: signatures, first docstring paragraphs, and public
methods of exported classes.  Run from the repository root:

    python docs/generate_api.py

The generated file is committed so the reference is readable without
running anything.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro.api",
    "repro.service",
    "repro.replication",
    "repro.faultinject",
    "repro.durability",
    "repro.obs",
    "repro.bench",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.analysis",
    "repro.experiments",
    "repro.utils",
]

OUTPUT = pathlib.Path(__file__).parent / "api.md"


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def describe_class(cls) -> list[str]:
    lines = [f"### `{cls.__name__}`", "", first_paragraph(cls), ""]
    members = []
    for name, attr in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(attr):
            members.append((name, f"`{name}{signature_of(attr)}`",
                            first_paragraph(attr) or "(inherited contract)"))
        elif isinstance(attr, property):
            members.append((name, f"`{name}` *(property)*",
                            first_paragraph(attr.fget)))
        elif isinstance(attr, classmethod):
            func = attr.__func__
            members.append((name, f"`{name}{signature_of(func)}` "
                                  f"*(classmethod)*", first_paragraph(func)))
    if members:
        lines.append("| member | description |")
        lines.append("|---|---|")
        for __, sig, doc in members:
            lines.append(f"| {sig} | {doc} |")
        lines.append("")
    return lines


def describe_function(func) -> list[str]:
    return [f"### `{func.__name__}{signature_of(func)}`", "",
            first_paragraph(func), ""]


PREAMBLE = """\
## Quickstart: the `BloomDB` facade

The recommended entry point is one config-driven engine object:

```python
import numpy as np
from repro import BloomDB

db = BloomDB.plan(namespace_size=1_000_000, accuracy=0.95,
                  tree="static", seed=7)
db.add_set("community_7", np.arange(1_000, 2_000, dtype=np.uint64))

db.sample("community_7")            # one draw (Algorithm 1)
db.sample("community_7", r=64)      # 64 draws in one tree pass
db.sample_many(["community_7"], r=8)  # batched, merged op report
db.reconstruct_all()                # recover every stored set
db.save("engine_dir"); db2 = BloomDB.load("engine_dir")
```

The tree variant is purely a config string (``"static"``, ``"pruned"``,
``"dynamic"``) resolved through the `TreeBackend` registry.

### Serving traffic: the `repro.service` subsystem

For concurrent request streams, serve a compiled engine from a pool of
worker processes (micro-batching + admission control + metrics; see
`docs/service.md`):

```python
from repro.service import ProcessService, ProcessShardPool

db = BloomDB.plan(namespace_size=1_000_000, seed=7, plan="compiled")
db.add_set("community_7", ids)
pool = ProcessShardPool.from_engine(db, "serving_dir", workers=2)
with ProcessService(pool) as svc:
    svc.sample("community_7", r=8, seed=11)   # bit-identical to BloomDB
    svc.stats()                               # fleet metrics snapshot
pool.close()
```

The same pool backs the ``repro serve --workers N`` HTTP endpoint.

### Migration from the legacy flat API

The flat exports remain available (they are what the facade composes),
but new code should use `BloomDB`:

| legacy flat wiring | `BloomDB` facade |
|---|---|
| `plan_tree(M, n, acc)` + `family_for_parameters(params)` | `BloomDB.plan(namespace_size=M, set_size=n, accuracy=acc)` |
| `BloomSampleTree.build(M, depth, family)` | `EngineConfig(tree="static")` (built internally) |
| `PrunedBloomSampleTree.build(ids, M, depth, family)` | `EngineConfig(tree="pruned")` + `db.add_set(...)` |
| `DynamicBloomSampleTree(M, depth, family)` | `EngineConfig(tree="dynamic")` + `db.insert_ids(...)` |
| `BloomFilter.from_items(ids, family)` | `db.add_set(name, ids)` |
| `BSTSampler(tree, rng=...).sample(query)` | `db.sample(name)` |
| `BSTSampler.sample_many(query, r)` | `db.sample(name, r=r)` / `db.sample_many(...)` |
| `BSTReconstructor(tree).reconstruct(query)` | `db.reconstruct(name)` / `db.reconstruct_all(...)` |
| `save_tree(tree, path)` / `load_tree(path)` | `db.save(dir)` / `BloomDB.load(dir)` |
| `FilterStore(family, tree=...)` | owned by the engine (`db.store`) |
| isinstance checks on tree classes | `backend_for(key)` / `backend_key_of(tree)` |
"""


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `docs/generate_api.py` — do not edit by hand.",
        "",
        PREAMBLE,
    ]
    seen: set[int] = set()
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        exported = [getattr(package, name)
                    for name in getattr(package, "__all__", [])]
        fresh = [obj for obj in exported
                 if id(obj) not in seen and
                 (inspect.isclass(obj) or inspect.isfunction(obj))]
        if not fresh:
            continue
        lines.append(f"## `{package_name}`")
        lines.append("")
        lines.append(first_paragraph(package))
        lines.append("")
        for obj in fresh:
            seen.add(id(obj))
            if inspect.isclass(obj):
                lines.extend(describe_class(obj))
            else:
                lines.extend(describe_function(obj))
    OUTPUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUTPUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
