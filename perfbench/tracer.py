"""In-process span tracer for one `odirac run`, bound from outside the package.

Run as

    python perfbench/tracer.py RESULT.json run SCENARIO.json --out DIR

It imports every odirac module, wraps the public functions named in
TARGETS at every place they are bound (module globals, dict tables such
as the task table, class attributes), runs the CLI in this process and,
once the run is over, writes per-group counts, self and total seconds to
RESULT.json and the layer-boundary spans to RESULT.spans.json.  A target that no longer
exists stops the run: a span that silently misses calls is worse than
none.

A span is kept in memory when control enters a layer from outside it;
calls inside the same layer only add to the counters.  Self time is a
span's duration minus the time of the traced calls it made.  The tracer
assumes one thread (the CLI's default `--jobs 1`).
"""

import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("odirac.exactla", "odirac.roots", "odirac.liealg", "odirac.cato",
           "odirac.spinor", "odirac.dirac", "odirac.hodge", "odirac.scenarios",
           "odirac.acceptance", "odirac.reporting", "odirac.cli")

TASKS = ("dirac", "square", "kostant", "simple_verma", "higher", "index",
         "circle", "hodge", "vogan")

# (group, "module:qualname", key its calls are counted under).  The layer is
# the group's first dotted part.  "Class.*name" wraps `name` on every class of
# the module that defines it, for methods the window kinds override.
TARGETS = [
    ("exactla.rref", "odirac.exactla:Mat.rref", None),
    ("exactla.matmul", "odirac.exactla:Mat.__matmul__", None),
    ("exactla.power", "odirac.exactla:Mat.power", None),
    ("exactla.charpoly", "odirac.exactla:charpoly", None),
    ("exactla.mat_new", "odirac.exactla:Mat.__init__", None),
    ("exactla.elementwise", "odirac.exactla:Mat.__add__", None),
    ("exactla.elementwise", "odirac.exactla:Mat.__sub__", None),
    ("exactla.elementwise", "odirac.exactla:Mat.scale", None),
    ("dirac.block", "odirac.dirac:DiracBlock.__init__", "dirac.block.builds"),
    ("dirac.eigen", "odirac.dirac:DiracBlock.eigenvalue_decomposition", None),
    ("dirac.eigen", "odirac.dirac:DiracBlock._candidate_eigenvalues",
     "dirac.eigen.candidate_sets"),
    ("dirac.square", "odirac.dirac:check_square", None),
    ("dirac.nilpotent", "odirac.dirac:DiracBlock.nilpotent", None),
    ("dirac.nilpotent", "odirac.dirac:DiracBlock.dirac_cohomology", None),
    ("dirac.nilpotent", "odirac.dirac:DiracBlock.higher_cohomology", None),
    ("dirac.nilpotent", "odirac.dirac:GradedNilpotent.chains", None),
    ("dirac.checks", "odirac.dirac:nonvanishing_check", None),
    ("dirac.checks", "odirac.dirac:simple_verma_theorem_check", None),
    ("dirac.checks", "odirac.dirac:index_identity_check", None),
    ("dirac.checks", "odirac.dirac:kostant_kernel_check", None),
    ("dirac.checks", "odirac.dirac:singular_cohomology_weights", None),
    ("dirac.checks", "odirac.dirac:vogan_audit", None),
    ("dirac.checks", "odirac.dirac:exact_circle", None),
    ("spinor.build", "odirac.spinor:SpinModule.__init__", None),
    ("spinor.cubic", "odirac.spinor:cubic_term", None),
    ("spinor.h_action", "odirac.spinor:SpinModule.h_action", None),
    ("cato.action", "odirac.cato:WeightModuleWindow.action", None),
    ("cato.action", "odirac.cato:Class.*_compute_action", "cato.action.computed"),
    ("cato.materialized", "odirac.cato:Class.*materialized", None),
    ("cato.gram", "odirac.cato:ContravariantForm.gram", None),
    ("cato.quotient", "odirac.cato:QuotientWindow._weight_data", None),
    ("cato.quotient", "odirac.cato:ContravariantForm.radical", None),
    ("cato.window_build", "odirac.cato:verma_window", None),
    ("cato.window_build", "odirac.cato:simple_quotient_window", None),
    ("cato.window_build", "odirac.cato:finite_dim_simple", None),
    ("cato.window_build", "odirac.cato:tensor_with_finite_dim", None),
    ("cato.window_build", "odirac.cato:ses_from_embedding", None),
    ("cato.window_build", "odirac.cato:ses_split", None),
    ("cato.window_build", "odirac.cato:singular_vectors", None),
    ("cato.window_build", "odirac.cato:VermaWindow.basis", None),
    ("roots.weight", "odirac.roots:Weight.__new__", "roots.weight_new.calls"),
    ("roots.weight", "odirac.roots:Weight.__add__", None),
    ("roots.weight", "odirac.roots:Weight.__sub__", None),
    ("roots.weight", "odirac.roots:Weight.__neg__", None),
    ("roots.weight", "odirac.roots:Weight.__mul__", None),
    ("roots.form", "odirac.roots:InvariantForm.pair", None),
    ("roots.form", "odirac.roots:InvariantForm.norm2", None),
    ("roots.build", "odirac.roots:build_root_system", None),
    ("roots.build", "odirac.roots:killing_form_on_dual", None),
    ("roots.build", "odirac.roots:weyl_group", None),
    ("liealg.chevalley", "odirac.liealg:chevalley_basis", None),
    ("liealg.bracket", "odirac.liealg:ChevalleyBasis.bracket", None),
    ("hodge.unitarity", "odirac.hodge:unitarity_check", None),
    ("hodge.positive_definite", "odirac.hodge:UnitaryStructure.positive_definite", None),
    ("hodge.weight_checks", "odirac.hodge:identification_check", None),
    ("hodge.weight_checks", "odirac.hodge:hodge_decomposition_check", None),
    ("hodge.weight_checks", "odirac.hodge:theorem52_comparison", None),
    ("scenarios.workspace", "odirac.scenarios:Workspace.__init__", None),
    ("scenarios.block_weights", "odirac.scenarios:Workspace.block_weights", None),
    ("scenarios.bundle_json", "odirac.scenarios:bundle_to_json", None),
] + [(f"scenarios.task.{t}", f"odirac.scenarios:_task_{t}", None) for t in TASKS]


class TargetMissing(RuntimeError):
    """A traced name no longer exists in the package."""


def _max_bits(mat):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in mat.rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.frames = []          # [seconds spent in traced callees] per active call
        self.open_spans = []      # indexes of the kept spans that are active
        self.layer_depth = Counter()
        self.group_depth = Counter()
        self.counts = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.extra = Counter()
        self.max = Counter()
        self.spans = []           # [group, parent span index, start, end]
        self._eigen_blocks = set()
        for group, _, count_key in TARGETS:
            self.counts[count_key or f"{group}.calls"] = 0
            self.self_s[group] = self.total_s[group] = 0.0
        for key in ("exactla.rref.entries", "exactla.matmul.products",
                    "dirac.block.dim_sum", "dirac.eigen.values", "dirac.eigen.candidates"):
            self.extra[key] = 0
        for key in ("exactla.max_bits", "dirac.block.dim_max", "spinor.dim"):
            self.max[key] = 0

    # -- per-target hooks: work and shape counters ---------------------------

    def _hooks(self):
        return {
            "odirac.exactla:Mat.rref": self._on_rref,
            "odirac.exactla:Mat.__matmul__": self._on_matmul,
            "odirac.dirac:DiracBlock.__init__": self._on_block,
            "odirac.dirac:DiracBlock.eigenvalue_decomposition": self._on_eigen,
            "odirac.dirac:DiracBlock._candidate_eigenvalues": self._on_candidates,
            "odirac.spinor:SpinModule.__init__": self._on_spin,
        }

    def _on_rref(self, args, result):
        m = args[0]
        self.extra["exactla.rref.entries"] += m.nrows * m.ncols
        self._bits(result[0])

    def _on_matmul(self, args, result):
        a, b = args[0], args[1]
        self.extra["exactla.matmul.products"] += a.nrows * a.ncols * b.ncols
        self._bits(result)

    def _on_block(self, args, result):
        dim = args[0].dim
        self.extra["dirac.block.dim_sum"] += dim
        self.max["dirac.block.dim_max"] = max(self.max["dirac.block.dim_max"], dim)

    def _on_eigen(self, args, result):
        self._eigen_blocks.add(id(args[0]))
        self.extra["dirac.eigen.values"] += len(result)

    def _on_candidates(self, args, result):
        self.extra["dirac.eigen.candidates"] += len(set(result))

    def _on_spin(self, args, result):
        self.max["spinor.dim"] = max(self.max["spinor.dim"], args[0].dim)

    def _bits(self, mat):
        self.max["exactla.max_bits"] = max(self.max["exactla.max_bits"], _max_bits(mat))

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, group, spec, count_key):
        layer = group.split(".", 1)[0]
        count_key = count_key or f"{group}.calls"
        hook = self._hooks().get(spec)
        frames, open_spans, spans = self.frames, self.open_spans, self.spans
        layer_depth, group_depth = self.layer_depth, self.group_depth
        counts, self_s, total_s = self.counts, self.self_s, self.total_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            kept = layer_depth[layer] == 0
            if kept:
                open_spans.append(len(spans))
                spans.append([group, open_spans[-2] if len(open_spans) > 1 else None,
                              0.0, 0.0])
            frame = [0.0]
            frames.append(frame)
            layer_depth[layer] += 1
            group_depth[group] += 1
            t0 = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                frames.pop()
                layer_depth[layer] -= 1
                group_depth[group] -= 1
                dt = t1 - t0
                self_s[group] += dt - frame[0]
                if not group_depth[group]:
                    total_s[group] += dt
                counts[count_key] += 1
                if kept:
                    span = spans[open_spans.pop()]
                    span[2], span[3] = t0, t1
                if ok and hook is not None:
                    hook(args, result)
                if frames:
                    # hook work is tracer overhead, kept out of the caller's self time
                    frames[-1][0] += perf() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at every place it is bound."""
        mods = [importlib.import_module(m) for m in MODULES]
        classes = [v for m in mods for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("odirac")]
        for group, spec, count_key in TARGETS:
            for raw in _resolve(spec):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if inspect.isgeneratorfunction(fn):
                    raise TargetMissing(f"{spec} is a generator; a span would end early")
                w = self.wrap(fn, group, spec, count_key)
                if not _rebind(mods, classes, raw, fn, w):
                    raise TargetMissing(f"{spec} is bound nowhere")

    def summary(self, wall_s):
        out = dict(self.counts)
        for group, s in self.self_s.items():
            out[f"{group}.self_s"] = s
        for group, s in self.total_s.items():
            out[f"{group}.total_s"] = s
        out.update(self.extra)
        out.update(self.max)
        out["dirac.eigen.distinct_blocks"] = len(self._eigen_blocks)
        cover = Counter({group.split(".", 1)[0]: 0.0 for group, _, _ in TARGETS})
        for group, _, t0, t1 in self.spans:
            cover[group.split(".", 1)[0]] += t1 - t0
        for layer, s in cover.items():
            out[f"{layer}.cover_s"] = s
        out["trace.wall_s"] = wall_s
        return out


def _resolve(spec):
    modname, qual = spec.split(":")
    mod = importlib.import_module(modname)
    if qual.startswith("Class.*"):
        name = qual[len("Class.*"):]
        found = [v.__dict__[name] for v in vars(mod).values()
                 if isinstance(v, type) and v.__module__ == modname and name in v.__dict__]
        if not found:
            raise TargetMissing(f"no class in {modname} defines {name}")
        return found
    obj = mod
    for part in qual.split("."):
        holder = obj
        try:
            obj = holder.__dict__[part] if isinstance(holder, type) else getattr(holder, part)
        except (KeyError, AttributeError):
            raise TargetMissing(f"{spec} does not exist") from None
    if not callable(obj) and not isinstance(obj, staticmethod):
        raise TargetMissing(f"{spec} is not callable")
    return [obj]


def _rebind(mods, classes, raw, fn, wrapper):
    hits = 0
    for m in mods:
        ns = vars(m)
        for k, v in list(ns.items()):
            if v is fn:
                setattr(m, k, wrapper)
                hits += 1
            elif isinstance(v, dict) and not k.startswith("__"):
                for dk, dv in list(v.items()):
                    if dv is fn:
                        v[dk] = wrapper
                        hits += 1
    for cls in classes:
        for k, v in list(vars(cls).items()):
            if v is raw or v is fn:
                setattr(cls, k, staticmethod(wrapper) if isinstance(v, staticmethod)
                        else wrapper)
                hits += 1
    return hits


def main(argv):
    result_path, cli_args = argv[0], argv[1:]
    from odirac import cli
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    wall = time.perf_counter() - t0
    with open(result_path, "w") as fh:
        json.dump(tracer.summary(wall), fh)
    with open(result_path.removesuffix(".json") + ".spans.json", "w") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
