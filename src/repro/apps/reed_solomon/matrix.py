"""Matrix algebra over GF(2^8): the linear algebra under the codec."""

from __future__ import annotations

import numpy as np

from repro.apps.reed_solomon.gf import GF


class GFMatrix:
    """A matrix over GF(256), stored as a uint8 numpy array."""

    def __init__(self, rows: np.ndarray):
        self.data = np.asarray(rows, dtype=np.uint8)
        if self.data.ndim != 2:
            raise ValueError("GFMatrix needs a 2-D array")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @classmethod
    def identity(cls, n: int) -> GFMatrix:
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def vandermonde(cls, rows: int, cols: int) -> GFMatrix:
        """V[r][c] = r ** c — every square submatrix of the derived
        (BackBlaze-style) encoding matrix is invertible."""
        data = np.zeros((rows, cols), dtype=np.uint8)
        for r in range(rows):
            for c in range(cols):
                data[r][c] = GF.power(r, c)
        return cls(data)

    def times(self, other: GFMatrix) -> GFMatrix:
        rows_a, cols_a = self.shape
        rows_b, cols_b = other.shape
        if cols_a != rows_b:
            raise ValueError(f"shape mismatch {self.shape} x "
                             f"{other.shape}")
        out = np.zeros((rows_a, cols_b), dtype=np.uint8)
        for r in range(rows_a):
            acc = np.zeros(cols_b, dtype=np.uint8)
            for k in range(cols_a):
                GF.addmul_slice(acc, int(self.data[r][k]),
                                other.data[k])
            out[r] = acc
        return GFMatrix(out)

    def augment(self, other: GFMatrix) -> GFMatrix:
        return GFMatrix(np.concatenate([self.data, other.data], axis=1))

    def select_rows(self, rows) -> GFMatrix:
        return GFMatrix(self.data[list(rows)])

    def invert(self) -> GFMatrix:
        """Gauss-Jordan elimination over the field."""
        n, m = self.shape
        if n != m:
            raise ValueError("only square matrices invert")
        work = self.augment(GFMatrix.identity(n)).data.copy()
        for col in range(n):
            pivot = None
            for row in range(col, n):
                if work[row][col] != 0:
                    pivot = row
                    break
            if pivot is None:
                raise ValueError("matrix is singular")
            if pivot != col:
                work[[col, pivot]] = work[[pivot, col]]
            scale = GF.inverse(int(work[col][col]))
            work[col] = GF.mul_slice(scale, work[col])
            for row in range(n):
                if row != col and work[row][col] != 0:
                    GF.addmul_slice(work[row], int(work[row][col]),
                                    work[col])
        return GFMatrix(work[:, n:])

