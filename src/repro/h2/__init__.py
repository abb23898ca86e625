"""HTTP/2 protocol substrate (RFC 7540) with HPACK (RFC 7541).

This package is a from-scratch, spec-complete implementation of the
HTTP/2 wire protocol used by both sides of the reproduction:

* the H2Scope probing client (:mod:`repro.scope`) uses it to craft and
  decode individual frames, including deliberately malformed ones, and
* the simulated servers (:mod:`repro.servers`) use it as a real protocol
  engine, layering vendor-specific behaviour quirks on top.

The package re-exports nothing: each name is imported from the
submodule that defines it.
"""
