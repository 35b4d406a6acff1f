"""Text and LaTeX renderings of tableaux and labelled matrices.

The text matrix uses one three-character cell per position: ``1`` and ``*``
for labelled positions, parentheses for excluded ones, ``.`` for the rest of
the nilradical and blanks outside it.  LaTeX output is line-stable: one
environment per tableau or matrix.
"""

from __future__ import annotations

from .builder import ComponentTableau, ONE, STAR
from .core import Pos
from .roots import ExcludedRootSet

_LATEX_LABEL = {STAR: r"\ast", ONE: "1"}


def _grid(ct: ComponentTableau) -> list[list[tuple[int, bool] | None]]:
    """The limit tableau row by row: per column the cell's entry and whether
    it was added below the column's height, or None past the column's end."""
    depth = max(len(col) for col in ct.columns)
    return [
        [(col[row - 1], row > ct.diagram.height(c)) if row <= len(col) else None for c, col in enumerate(ct.columns)]
        for row in range(1, depth + 1)
    ]


def _labels(ct: ComponentTableau) -> dict[Pos, str]:
    """``STAR`` or ``ONE`` for each labelled position."""
    return {**dict.fromkeys(ct.e_support, ONE), **dict.fromkeys(ct.v_support, STAR)}


def render_extended(ct: ComponentTableau) -> str:
    """Grid of the limit tableau; entries added to a column are marked +."""
    width = max(2, len(str(ct.diagram.n))) + 1
    lines = []
    for row in _grid(ct):
        cells = ["" if cell is None else f"{cell[0]}{'+' if cell[1] else ' '}" for cell in row]
        lines.append("".join(cell.rjust(width) for cell in cells).rstrip())
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
    labels = _labels(ct)
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
            label = labels.get(pos, ".")
            cells.append(f"({label})" if pos in excluded else f" {label} ")
        rows.append(f"{i:>3} " + "".join(cells).rstrip())
    return "\n".join(rows)


def latex_component(ct: ComponentTableau, index: int) -> str:
    """One tikz-style environment per decorated tableau."""
    out = [f"% component tableau {index}", r"\begin{tikzcd}[row sep=0.5em, column sep=1em]"]
    for row in _grid(ct):
        cells = ["" if cell is None else rf"\red{{{cell[0]}}}" if cell[1] else str(cell[0]) for cell in row]
        out.append(" & ".join(cells) + r" \\")
    out.append(r"\end{tikzcd}")
    for label, i, j in ct.lines():
        out.append(rf"% \ell_{{{i},{j}}} : {_LATEX_LABEL[label]}")
    return "\n".join(out)


def latex_matrix(ct: ComponentTableau, roots: ExcludedRootSet, index: int) -> str:
    diagram = ct.diagram
    n = diagram.n
    labels = _labels(ct)
    out = [f"% labelled matrix {index}", r"\begin{pmatrix}"]
    for i in range(1, n + 1):
        cells = []
        for j in range(1, n + 1):
            pos = (i, j)
            if not diagram.in_nilradical(pos):
                cells.append("1" if i == j else " ")
                continue
            body = _LATEX_LABEL[labels[pos]] if pos in labels else " "
            if pos in roots.excluded:
                body = rf"\cir{{{body}}}"
            cells.append(body)
        out.append(" & ".join(cells) + r" \\")
    out.append(r"\end{pmatrix}")
    return "\n".join(out)
