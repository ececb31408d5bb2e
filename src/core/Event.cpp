//===- core/Event.cpp - Observable events ---------------------------------===//

#include "core/Event.h"

#include "support/Hash.h"
#include "support/Text.h"

using namespace ccal;

std::string Event::toString() const {
  if (isSched())
    return strFormat("->%u", Tid);
  std::string Out = strFormat("%u.%s", Tid, Kind.c_str());
  if (!Args.empty()) {
    Out += "(";
    for (size_t I = 0, E = Args.size(); I != E; ++I) {
      if (I != 0)
        Out += ", ";
      Out += std::to_string(Args[I]);
    }
    Out += ")";
  }
  return Out;
}

bool ccal::operator<(const Event &A, const Event &B) {
  if (A.Tid != B.Tid)
    return A.Tid < B.Tid;
  if (A.Kind != B.Kind)
    return A.Kind < B.Kind; // string order, not id order
  return A.Args < B.Args;
}

