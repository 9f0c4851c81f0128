#include "durability/error.h"

namespace scprt::durability {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "ok";
    case ErrorCode::kIo:
      return "io";
    case ErrorCode::kBadMagic:
      return "bad magic";
    case ErrorCode::kVersionSkew:
      return "version skew";
    case ErrorCode::kKindMismatch:
      return "kind mismatch";
    case ErrorCode::kCorrupt:
      return "corrupt";
    case ErrorCode::kStateMismatch:
      return "state mismatch";
    case ErrorCode::kSyncFailed:
      return "sync failed";
    case ErrorCode::kRenameFailed:
      return "rename failed";
  }
  return "unknown";
}

std::string Error::ToString() const {
  std::string text = ErrorCodeName(code);
  if (!detail.empty()) {
    text += ": ";
    text += detail;
  }
  return text;
}

Error MakeError(ErrorCode code, std::string_view detail) {
  Error error;
  error.code = code;
  error.detail = std::string(detail);
  return error;
}

}  // namespace scprt::durability
