// qcap-lint-test: as=src/exec/runner.cc
// qcap-lint-test: layer common:
// qcap-lint-test: layer engine: common
// Known-bad: the including file's module ('exec') was never added to the
// layering DAG; every cross-module include it makes is flagged until the
// module is declared (docs/LINT.md has the add-a-module recipe).
#include "engine/catalog.h"  // expect: layer-violation
