"""IBM Eagle-style heavy-hex coupling map, generated from its lattice rule."""

from __future__ import annotations

# Columns occupied by each of the seven qubit rows: 14, 15, 15, 15, 15, 15, 14.
ROW_COLUMNS = [range(0, 14)] + [range(0, 15)] * 5 + [range(1, 15)]
BRIDGE_STRIDE = 4


def heavy_hex() -> tuple[int, list[tuple[int, int]]]:
    """Qubit count and edge list of the 127-qubit heavy-hex lattice.

    Each row is a chain of qubits. Between rows r and r+1 a bridge qubit joins
    the two qubits of one column, every 4 columns, starting at column 0 below
    even rows and at column 2 below odd rows. Qubits are numbered row by row,
    each row followed by the bridges below it, which gives IBM's published
    numbering (bridge 14 joins qubits 0 and 18; bridge 112 joins 108 and 126).
    """
    label: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    bridges: list[tuple[int, int]] = []  # (bridge qubit, column) awaiting the next row
    n = 0
    for row, columns in enumerate(ROW_COLUMNS):
        for col in columns:
            label[row, col] = n
            n += 1
        edges += [(label[row, c], label[row, c + 1]) for c in columns[:-1]]
        edges += [(b, label[row, col]) for b, col in bridges]
        bridges = []
        if row + 1 < len(ROW_COLUMNS):
            for col in range(2 * (row % 2), 15, BRIDGE_STRIDE):
                edges.append((label[row, col], n))
                bridges.append((n, col))
                n += 1
    return n, edges
