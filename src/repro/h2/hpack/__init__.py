"""HPACK — HTTP/2 header compression (RFC 7541), implemented from scratch.

Layout:

* :mod:`repro.h2.hpack.integer` — the N-bit-prefix integer codec (§5.1);
* :mod:`repro.h2.hpack.huffman` / ``huffman_table`` — the static Huffman
  code of Appendix B, encoder and canonical-tree decoder (§5.2);
* :mod:`repro.h2.hpack.static_table` — the 61-entry static table
  (Appendix A);
* :mod:`repro.h2.hpack.table` — the dynamic table with size-based
  eviction (§4), indexed by ``(name, value)`` and by name so a lookup
  is two dict gets however full the table is;
* :mod:`repro.h2.hpack.encoder` / ``decoder`` — header-block
  serialization and parsing (§6), one loop per block, including the
  indexing policies the paper's servers differ on (e.g. Nginx never
  indexes response headers, which is what produces its compression
  ratio of ~1 in Figs. 4–5).

libnghttp2 is the outside reference for every byte the codec writes or
reads (``tests/h2/test_huffman_differential.py``).
"""
