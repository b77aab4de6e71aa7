"""In-memory span tracer for one benchmark child process.

Run a step under tracing with

    python perfbench/spans.py --out SPANS.json -m qsup.cli train --config run.json
    python perfbench/spans.py --out SPANS.json perfbench/steps.py convert ...

Before the target runs, every function listed in a ``qsup.<module>.__all__``
(discovered at run time) is wrapped, and each wrapper is rebound wherever a
``qsup.*`` module binds the same function object, so calls such as
``model`` -> ``bow_featurize`` or ``cli`` -> ``train`` are seen.  A wrapper
records a span with its parent; self time is the span's duration minus the
time its child spans cover.  Generators are followed: each resumption is a
span of the function that made the generator, and the items it yields are
counted.  Totals per function are always exact; individual spans are kept
only for the first ``SPAN_CAP`` calls of each function, so hot leaves such
as ``qparse.tokenize`` stay aggregated.  Everything is written at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import runpy
import sys
import time

SPAN_CAP = 200


class Tracer:
    def __init__(self, clock=time.perf_counter, span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, items]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self._next_id = 0

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        return stat

    def enter(self, name: str, call: bool = True) -> None:
        if call:
            self._stat(name)[0] += 1
        self._next_id += 1
        self.stack.append([name, self.clock(), 0.0, self._next_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        stat = self._stat(name)
        stat[1] += duration
        stat[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if stat[0] <= self.span_cap:
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if inspect.isgenerator(result):
                return self._follow(result, name)
            return result

        return wrapper

    def _follow(self, gen, name: str):
        stat = self._stat(name)
        try:
            while True:
                self.enter(name, call=False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                stat[3] += 1
                yield item
        finally:
            gen.close()

    def report(self) -> dict:
        return {
            "stats": {
                name: {"calls": c, "total_s": t, "self_s": s, "items": i}
                for name, (c, t, s, i) in sorted(self.stats.items())
            },
            "spans": [list(s) for s in self.spans],
            "dropped_spans": self.dropped,
        }


def instrument(tracer: Tracer, package: str = "qsup") -> None:
    """Wrap the public functions of every module of ``package`` under span
    names ``<module>.<function>``."""
    pkg = importlib.import_module(package)
    modules = [pkg] + [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[id(fn)] = (fn, tracer.wrap(fn, f"{short}.{attr}"))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out":
        sys.stderr.write("usage: spans.py --out SPANS.json (-m MODULE | SCRIPT) [ARGS...]\n")
        return 1
    out, target = argv[1], argv[2:]
    tracer = Tracer()
    instrument(tracer)
    if target[0] == "-m":
        root = f"{target[1].rpartition('.')[2]}.{target[2] if len(target) > 2 else ''}"
        sys.argv = [target[1]] + target[2:]
        run = functools.partial(runpy.run_module, target[1], run_name="__main__", alter_sys=True)
    else:
        root = f"step.{target[1] if len(target) > 1 else ''}"
        sys.argv = list(target)
        run = functools.partial(runpy.run_path, target[0], run_name="__main__")
    code = 0
    tracer.enter(root)
    try:
        run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except BaseException:
        code = 1
        raise
    finally:
        tracer.exit()
        report = tracer.report()
        report["root"] = root
        report["exit_code"] = code
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
