"""The hot kernels: homomorphism search, Smith reduction and Morse
reduction of chain complexes, implemented in ``_pure``.  The Morse
reduction reads the boundary columns it is given and never writes them."""

from ._pure import reduce_chain_complex, search_homs, snf_diagonal

__all__ = ["search_homs", "snf_diagonal", "reduce_chain_complex"]
