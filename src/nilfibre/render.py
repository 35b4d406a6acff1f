"""Text and LaTeX renderings of tableaux and labelled matrices.

The text matrix uses one three-character cell per position: ``1`` and ``*``
for labelled positions, parentheses for excluded ones, ``.`` for the rest of
the nilradical and blanks outside it.  LaTeX output is line-stable: one
environment per tableau or matrix.
"""

from __future__ import annotations

from .builder import ComponentTableau, STAR
from .roots import ExcludedRootSet


def render_extended(ct: ComponentTableau) -> str:
    """Grid of the limit tableau; entries added to a column are starred."""
    diagram = ct.diagram
    depth = max(len(col) for col in ct.columns)
    width = max(2, len(str(diagram.n))) + 1
    lines = []
    for row in range(1, depth + 1):
        cells = []
        for c, col in enumerate(ct.columns):
            if row <= len(col):
                mark = "+" if row > diagram.height(c) else " "
                cells.append(f"{col[row - 1]}{mark}".rjust(width))
            else:
                cells.append(" " * width)
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)


def render_component(ct: ComponentTableau) -> str:
    """Limit tableau grid followed by the labelled lines."""
    body = [render_extended(ct)]
    for label, i, j in ct.lines():
        body.append(f"{label} {i}->{j}")
    return "\n".join(body)


def render_matrix(ct: ComponentTableau, roots: ExcludedRootSet) -> str:
    """n x n grid with labels and encircled exclusions."""
    diagram = ct.diagram
    n = diagram.n
    excluded = roots.excluded
    rows = []
    header = "    " + "".join(f"{j:>3}" for j in range(1, n + 1))
    rows.append(header)
    for i in range(1, n + 1):
        cells = []
        for j in range(1, n + 1):
            pos = (i, j)
            if not diagram.in_nilradical(pos):
                cells.append("   ")
                continue
            if pos in ct.v_support:
                label = "*"
            elif pos in ct.e_support:
                label = "1"
            else:
                label = "."
            if pos in excluded:
                cells.append(f"({label})")
            else:
                cells.append(f" {label} ")
        rows.append(f"{i:>3} " + "".join(cells).rstrip())
    return "\n".join(rows)


def latex_component(ct: ComponentTableau, index: int) -> str:
    """One tikz-style environment per decorated tableau."""
    diagram = ct.diagram
    depth = max(len(col) for col in ct.columns)
    out = [f"% component tableau {index}", r"\begin{tikzcd}[row sep=0.5em, column sep=1em]"]
    for row in range(1, depth + 1):
        cells = []
        for c, col in enumerate(ct.columns):
            if row <= len(col):
                entry = col[row - 1]
                cell = rf"\red{{{entry}}}" if row > diagram.height(c) else str(entry)
            else:
                cell = ""
            cells.append(cell)
        out.append(" & ".join(cells) + r" \\")
    out.append(r"\end{tikzcd}")
    for label, i, j in ct.lines():
        tag = r"\ast" if label == STAR else "1"
        out.append(rf"% \ell_{{{i},{j}}} : {tag}")
    return "\n".join(out)


def latex_matrix(ct: ComponentTableau, roots: ExcludedRootSet, index: int) -> str:
    diagram = ct.diagram
    n = diagram.n
    out = [f"% labelled matrix {index}", r"\begin{pmatrix}"]
    for i in range(1, n + 1):
        cells = []
        for j in range(1, n + 1):
            pos = (i, j)
            if not diagram.in_nilradical(pos):
                cells.append("1" if i == j else " ")
                continue
            if pos in ct.v_support:
                body = r"\ast"
            elif pos in ct.e_support:
                body = "1"
            else:
                body = " "
            if pos in roots.excluded:
                body = rf"\cir{{{body}}}"
            cells.append(body)
        out.append(" & ".join(cells) + r" \\")
    out.append(r"\end{pmatrix}")
    return "\n".join(out)
