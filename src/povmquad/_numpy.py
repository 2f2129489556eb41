"""numpy, imported by the first attribute read of np.

The package's modules name numpy at module level only in annotations,
which stay strings, so `from ._numpy import np` lets them import
without numpy: a command that computes nothing with it (moments, --help,
a usage error) never loads it.  np keeps nothing: every read fetches
numpy's current attribute, so code that patches numpy.<name> (a test
that forbids a call, say) reaches the package from then on, and stops
reaching it once the patch is undone.  The hook is __getattribute__,
not __getattr__, so a read raises and catches no AttributeError: it
costs about 0.4 us, some 1,500 reads (0.7 ms) in the costliest command.
"""


class _Deferred:
    def __getattribute__(self, name: str):
        import numpy

        return getattr(numpy, name)


np = _Deferred()
