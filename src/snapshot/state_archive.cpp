#include "snapshot/state_archive.hpp"

#include <cstdarg>
#include <cstdio>

namespace vixnoc {

void StateArchive::Require(bool ok, const char* fmt, ...) const {
  if (r_ == nullptr || ok) return;
  char why[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(why, sizeof why, fmt, args);
  va_end(args);
  r_->Fail(why);
}

}  // namespace vixnoc
