import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # the exit-time collection would only traverse the tens of thousands
    # of objects the imports left tracked; exit frees them all the same
    gc.freeze()
    sys.exit(code)
