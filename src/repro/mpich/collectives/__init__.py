"""Collectives as walks over one rank's steps (:mod:`.walk`): tree reduce
(:mod:`.reduce`), bcast (:mod:`.bcast`), allreduce (:mod:`.allreduce`)."""
