"""Test set-up: importing run pins the BLAS threads before numpy loads."""

import run  # noqa: F401
