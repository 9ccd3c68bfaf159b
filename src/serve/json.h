#include "src/common/json.h"  // The reader moved there; this path keeps old includes working.
