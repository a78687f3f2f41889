"""Human-readable tables and CSV extraction for result bundles."""

import csv
import os


def _table(headers, rows):
    cols = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    out = []
    fmt = "  ".join("{:<%d}" % w for w in widths)
    out.append(fmt.format(*headers))
    out.append("  ".join("-" * w for w in widths))
    for r in rows:
        out.append(fmt.format(*[str(c) for c in r]))
    return "\n".join(out)


def _dirac_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        dims = rec["dims"]
        htop = ";".join(f"{k}:{v[0]}+{v[1]}-" for k, v in dims["Htop"].items()) or "-"
        rows.append([mu, rec["dim_block"], dims["ker"], dims["im"], dims["gen0"],
                     dims["HD"], dims["HD_plus"], dims["HD_minus"], htop,
                     " ".join(rec["eigenvalues"])])
    return ["weight", "dim", "ker", "im", "gen0", "HD", "HD+", "HD-", "Htop",
            "eigenvalues"], rows


def _square_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        eigs = " ".join(f"{c}^{d}" for c, d in rec["eigenvalues"].items())
        rows.append([mu, "ok" if rec["matrix_identity"] else "FAIL", eigs])
    return ["weight", "2D^2=Casimir", "eigenvalue^dim"], rows


def _character_rows(doc, left_key, right_key):
    keys = sorted(set(doc.get(left_key, {})) | set(doc.get(right_key, {})))
    rows = [[k, doc.get(left_key, {}).get(k, 0), doc.get(right_key, {}).get(k, 0)]
            for k in keys]
    return ["weight", "computed", "expected"], rows


def _index_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        rows.append([mu, rec["signed_sum"], rec["graded_difference"],
                     "ok" if rec["ok"] else "FAIL"])
    return ["weight", "signed Htop sum", "S+/S- difference", "equal"], rows


def _circle_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        nd = rec["node_dims"]
        rows.append([mu, "exact" if rec["exact"] else "FAIL",
                     " ".join(f"{k}={v}" for k, v in sorted(nd.items())),
                     ";".join(f"({t['k']},{t['l']},{t['m']})" for t in rec["triples"])])
    return ["weight", "exactness", "node dims", "block triples (k,l,m)"], rows


def _hodge_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        rows.append([mu,
                     "ok" if rec["identification"] else "FAIL",
                     "ok" if rec["adjoint"] else "FAIL",
                     "ok" if rec["splitting"] else "FAIL",
                     "ok" if rec["cplus_decomposition"] else "FAIL",
                     rec["hd"], rec["ce_cohomology"], rec["ce_homology"]])
    return ["weight", "C+=d,C-=del", "adjoint", "ker+im split", "C+ split",
            "HD", "CE coh", "CE hom"], rows


def _vogan_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        rows.append([mu, "ok" if rec["shifted"] else "FAIL",
                     "yes" if rec["unshifted"] else "no"])
    return ["weight", "nu+rho_h in W(lam+rho)", "nu in W(lam)"], rows


def _higher_rows(doc):
    rows = []
    for mu, rec in sorted(doc.get("per_weight", {}).items()):
        htop = ";".join(f"{k}:{v[0]}+{v[1]}-" for k, v in rec["Htop"].items()) or "-"
        rows.append([mu, htop, " ".join(str(s) for s in rec["jordan_sizes"]) or "-"])
    return ["weight", "Htop", "Jordan sizes"], rows


_TASK_TABLES = {
    "dirac": _dirac_rows,
    "square": _square_rows,
    "index": _index_rows,
    "circle": _circle_rows,
    "hodge": _hodge_rows,
    "vogan": _vogan_rows,
    "higher": _higher_rows,
}


def render_bundle(bundle) -> str:
    man = bundle.get("manifest", {})
    lines = [
        f"scenario: {man.get('scenario')}   engine {man.get('engine')} {man.get('version')}",
        f"sha256: {man.get('scenario_sha256')}",
        f"arithmetic: {man.get('exact_arithmetic')}",
        f"overall: {'PASS' if bundle.get('ok') else 'FAIL'}",
        "",
    ]
    tasks = bundle.get("tasks", {})
    if not tasks:
        lines.append("(manifest-only bundle)")
        return "\n".join(lines) + "\n"
    lines.append(_table(["task", "status"],
                        [[t, "PASS" if d.get("ok") else "FAIL"]
                         for t, d in sorted(tasks.items())]))
    lines.append("")
    for t, doc in sorted(tasks.items()):
        lines.append(f"== {t} ==")
        if "error" in doc:
            lines.append(f"error: {doc['error']}")
        if t in _TASK_TABLES and doc.get("per_weight"):
            headers, rows = _TASK_TABLES[t](doc)
            lines.append(_table(headers, rows))
        if t == "kostant":
            lines.append(f"|W^1| = {doc.get('coset_size')}   constituents: "
                         + ", ".join(doc.get("constituents", [])))
            lines.append(f"cubic term zero: {doc.get('cubic_term_zero')}")
            headers, rows = _character_rows(doc, "kernel_character", "expected_character")
            lines.append(_table(headers, rows))
        if t == "simple_verma":
            headers, rows = _character_rows(doc, "hd_character", "expected_character")
            lines.append(_table(headers, rows))
        if t == "dirac" and "nonvanishing" in doc:
            nv = doc["nonvanishing"]
            lines.append(f"nonvanishing at {nv['weight']}: in kernel {nv['in_kernel']}, "
                         f"outside image {nv['not_in_image']}")
        if t == "hodge":
            lines.append(f"unitary on window: {doc.get('unitary_on_window')}")
            if "note" in doc:
                lines.append(doc["note"])
        lines.append("")
    return "\n".join(lines) + "\n"


def write_csv_tables(bundle, outdir):
    os.makedirs(outdir, exist_ok=True)
    written = []
    for t, doc in sorted(bundle.get("tasks", {}).items()):
        if t in _TASK_TABLES and doc.get("per_weight"):
            headers, rows = _TASK_TABLES[t](doc)
            path = os.path.join(outdir, f"{t}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(headers)
                w.writerows(rows)
            written.append(path)
    return written
