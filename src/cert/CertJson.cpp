//===- cert/CertJson.cpp - Certificate (de)serialization ---------------------===//

#include "cert/CertJson.h"

using namespace ccal;

bool cert::getStr(const JsonValue &V, const char *Name, std::string &Out,
                  std::string &Error) {
  const JsonValue *F = V.field(Name);
  if (!F || !F->isString()) {
    Error = std::string("missing or non-string field '") + Name + "'";
    return false;
  }
  Out = F->StrVal;
  return true;
}

bool cert::getBool(const JsonValue &V, const char *Name, bool &Out,
                   std::string &Error) {
  const JsonValue *F = V.field(Name);
  if (!F || !F->isBool()) {
    Error = std::string("missing or non-bool field '") + Name + "'";
    return false;
  }
  Out = F->BoolVal;
  return true;
}

bool cert::getU64(const JsonValue &V, const char *Name, std::uint64_t &Out,
                  std::string &Error) {
  const JsonValue *F = V.field(Name);
  if (!F || !F->isNumber() || !F->IsInt || F->IntVal < 0) {
    Error = std::string("missing or non-integer field '") + Name + "'";
    return false;
  }
  Out = static_cast<std::uint64_t>(F->IntVal);
  return true;
}

JsonValue cert::certToJson(const RefinementCertificate &C) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["rule"] = jsonStr(C.Rule);
  V.Fields["underlay"] = jsonStr(C.Underlay);
  V.Fields["module"] = jsonStr(C.Module);
  V.Fields["overlay"] = jsonStr(C.Overlay);
  V.Fields["relation"] = jsonStr(C.Relation);
  V.Fields["valid"] = jsonBool(C.Valid);
  V.Fields["coverage_complete"] = jsonBool(C.CoverageComplete);
  V.Fields["coverage"] = jsonStr(C.Coverage);
  V.Fields["obligations"] = jsonUInt(C.Obligations);
  V.Fields["runs"] = jsonUInt(C.Runs);
  V.Fields["moves"] = jsonUInt(C.Moves);
  V.Fields["invariants"] = jsonUInt(C.Invariants);
  std::vector<JsonValue> Premises;
  for (const CertPtr &P : C.Premises)
    Premises.push_back(certToJson(*P));
  V.Fields["premises"] = jsonArray(std::move(Premises));
  std::vector<JsonValue> Notes;
  for (const std::string &N : C.Notes)
    Notes.push_back(jsonStr(N));
  V.Fields["notes"] = jsonArray(std::move(Notes));
  return V;
}

CertPtr cert::certFromJson(const JsonValue &V, std::string &Error) {
  if (!V.isObject()) {
    Error = "certificate is not an object";
    return nullptr;
  }
  auto C = std::make_shared<RefinementCertificate>();
  if (!getStr(V, "rule", C->Rule, Error) ||
      !getStr(V, "underlay", C->Underlay, Error) ||
      !getStr(V, "module", C->Module, Error) ||
      !getStr(V, "overlay", C->Overlay, Error) ||
      !getStr(V, "relation", C->Relation, Error) ||
      !getBool(V, "valid", C->Valid, Error) ||
      !getBool(V, "coverage_complete", C->CoverageComplete, Error) ||
      !getStr(V, "coverage", C->Coverage, Error) ||
      !getU64(V, "obligations", C->Obligations, Error) ||
      !getU64(V, "runs", C->Runs, Error) ||
      !getU64(V, "moves", C->Moves, Error) ||
      !getU64(V, "invariants", C->Invariants, Error))
    return nullptr;
  const JsonValue *Premises = V.field("premises");
  if (!Premises || !Premises->isArray()) {
    Error = "missing or non-array field 'premises'";
    return nullptr;
  }
  for (const JsonValue &P : Premises->Items) {
    CertPtr Sub = certFromJson(P, Error);
    if (!Sub)
      return nullptr;
    C->Premises.push_back(std::move(Sub));
  }
  const JsonValue *Notes = V.field("notes");
  if (!Notes || !Notes->isArray()) {
    Error = "missing or non-array field 'notes'";
    return nullptr;
  }
  for (const JsonValue &N : Notes->Items) {
    if (!N.isString()) {
      Error = "non-string note";
      return nullptr;
    }
    C->Notes.push_back(N.StrVal);
  }
  return C;
}

JsonValue cert::eventToJson(const Event &E) {
  std::vector<JsonValue> Args;
  for (std::int64_t A : E.Args)
    Args.push_back(jsonInt(A));
  return jsonArray(
      {jsonUInt(E.Tid), jsonStr(E.Kind.str()), jsonArray(std::move(Args))});
}

bool cert::eventFromJson(const JsonValue &V, Event &Out) {
  if (!V.isArray() || V.Items.size() != 3)
    return false;
  const JsonValue &Tid = V.Items[0], &Kind = V.Items[1], &Args = V.Items[2];
  if (!Tid.isNumber() || !Tid.IsInt || Tid.IntVal < 0 || !Kind.isString() ||
      !Args.isArray())
    return false;
  Out.Tid = static_cast<ThreadId>(Tid.IntVal);
  Out.Kind = KindId(Kind.StrVal);
  Out.Args.clear();
  for (const JsonValue &A : Args.Items) {
    if (!A.isNumber() || !A.IsInt)
      return false;
    Out.Args.push_back(A.IntVal);
  }
  return true;
}

JsonValue cert::logToJson(const Log &L) {
  std::vector<JsonValue> Events;
  for (const Event &E : L)
    Events.push_back(eventToJson(E));
  return jsonArray(std::move(Events));
}

bool cert::logFromJson(const JsonValue &V, Log &Out) {
  if (!V.isArray())
    return false;
  Out.clear();
  for (const JsonValue &E : V.Items) {
    Event Ev;
    if (!eventFromJson(E, Ev))
      return false;
    Out.push_back(std::move(Ev));
  }
  return true;
}

JsonValue cert::implicationToJson(const ImplicationReport &R) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["premise"] = jsonStr(R.Premise);
  V.Fields["conclusion"] = jsonStr(R.Conclusion);
  V.Fields["logs_checked"] = jsonUInt(R.LogsChecked);
  V.Fields["holds"] = jsonBool(R.Holds);
  V.Fields["counterexample"] = logToJson(R.Counterexample);
  return V;
}

bool cert::implicationFromJson(const JsonValue &V, ImplicationReport &Out) {
  std::string Error;
  const JsonValue *Cex = V.field("counterexample");
  return V.isObject() && getStr(V, "premise", Out.Premise, Error) &&
         getStr(V, "conclusion", Out.Conclusion, Error) &&
         getU64(V, "logs_checked", Out.LogsChecked, Error) &&
         getBool(V, "holds", Out.Holds, Error) && Cex &&
         logFromJson(*Cex, Out.Counterexample);
}
