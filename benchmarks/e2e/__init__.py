"""The repo's end-to-end campaign benchmark (see README.md beside this file)."""
