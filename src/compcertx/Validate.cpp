//===- compcertx/Validate.cpp - Translation validation ----------------------===//

#include "compcertx/Validate.h"

#include "cert/CertKeys.h"
#include "cert/CertStore.h"
#include "compcertx/Linker.h"
#include "compcertx/Optimize.h"
#include "core/Certificate.h"
#include "obs/Trace.h"
#include "support/Text.h"

using namespace ccal;

namespace {

const char ValidateCheckerVersion[] = "validate-v1";

JsonValue validationToPayload(const ValidationReport &R) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["ok"] = jsonBool(R.Ok);
  V.Fields["cases_checked"] = jsonUInt(R.CasesChecked);
  V.Fields["error"] = jsonStr(R.Error);
  V.Fields["both_stuck"] = jsonUInt(R.BothStuck);
  V.Fields["optimizer_rewrites"] = jsonUInt(R.OptimizerRewrites);
  return V;
}

bool validationFromPayload(const JsonValue &V, ValidationReport &R) {
  std::string Error;
  return cert::getBool(V, "ok", R.Ok, Error) &&
         cert::getU64(V, "cases_checked", R.CasesChecked, Error) &&
         cert::getStr(V, "error", R.Error, Error) &&
         cert::getU64(V, "both_stuck", R.BothStuck, Error) &&
         cert::getU64(V, "optimizer_rewrites", R.OptimizerRewrites, Error);
}

} // namespace

VmRun ccal::runVmSequential(const AsmProgramPtr &Prog, const std::string &Fn,
                            std::vector<std::int64_t> Args,
                            const PrimHandler &Prims,
                            std::uint64_t MaxSteps) {
  VmRun Out;
  Vm Machine(Prog);
  Machine.start(Fn, std::move(Args));
  Out.Globals = Prog->initialGlobals();

  while (true) {
    // The budget spans primitive resumptions: a loop around a primitive
    // call must not get a fresh budget per iteration.
    std::uint64_t Remaining =
        MaxSteps > Machine.steps() ? MaxSteps - Machine.steps() : 1;
    Vm::Status St = Machine.run(Out.Globals, Remaining);
    if (St == Vm::Status::Done) {
      Out.Ret = Machine.result();
      Out.Steps = Machine.steps();
      return Out;
    }
    if (St == Vm::Status::Error) {
      Out.Error = Machine.error();
      Out.Steps = Machine.steps();
      return Out;
    }
    // At a primitive.
    std::optional<std::int64_t> Ret =
        Prims(Machine.primName(), Machine.primArgs());
    if (!Ret) {
      Out.Error = "primitive '" + Machine.primName() + "' got stuck";
      Out.Steps = Machine.steps();
      return Out;
    }
    Out.Trace.push_back({Machine.primName(), Machine.primArgs(), *Ret});
    Machine.resumePrim(*Ret);
  }
}

namespace {

ValidationReport
validateTranslationImpl(const ClightModule &Src,
                        const std::vector<ValidationCase> &Cases,
                        const std::function<PrimHandler()> &MakePrims,
                        const ValidationOptions &Opts) {
  obs::Span ValidateSpan("compcertx.validate", "compcertx");
  ValidationReport Report;
  AsmProgramPtr Compiled = compileAndLink(Src.Name + ".lasm", {&Src});

  // The optimized program is a third, independent execution of the same
  // source: AsmProgram is a plain value, so copy then rewrite in place.
  AsmProgramPtr Optimized;
  if (Opts.CheckOptimized) {
    auto Copy = std::make_shared<AsmProgram>(*Compiled);
    Report.OptimizerRewrites = optimizeProgram(*Copy).total();
    Optimized = std::move(Copy);
  }

  for (const ValidationCase &Case : Cases) {
    ++Report.CasesChecked;

    InterpOptions RefOpts;
    RefOpts.MaxSteps = Opts.MaxSteps;
    Interp Ref(Src, MakePrims(), RefOpts);
    std::optional<std::int64_t> RefRet = Ref.call(Case.Fn, Case.Args);

    VmRun Compiled2 = runVmSequential(Compiled, Case.Fn, Case.Args,
                                      MakePrims(), Opts.MaxSteps);

    auto Mismatch = [&](const std::string &What) {
      Report.Ok = false;
      Report.Error = strFormat(
          "case %s%s: %s", Case.Fn.c_str(),
          intListToString(Case.Args).c_str(), What.c_str());
    };

    if (RefRet.has_value() != Compiled2.Ret.has_value()) {
      Mismatch(strFormat(
          "one side got stuck (interp: %s / vm: %s)",
          RefRet ? "ok" : Ref.error().c_str(),
          Compiled2.Ret ? "ok" : Compiled2.Error.c_str()));
      return Report;
    }
    bool AllStuck = !RefRet;
    if (RefRet) {
      if (*RefRet != *Compiled2.Ret) {
        Mismatch(strFormat("result mismatch: interp %lld vs vm %lld",
                           static_cast<long long>(*RefRet),
                           static_cast<long long>(*Compiled2.Ret)));
        return Report;
      }
      if (Ref.trace() != Compiled2.Trace) {
        Mismatch("primitive trace mismatch");
        return Report;
      }
      if (Ref.globals() != Compiled2.Globals) {
        Mismatch("final global memory mismatch");
        return Report;
      }
    }

    if (Opts.CheckOptimized) {
      VmRun Opt = runVmSequential(Optimized, Case.Fn, Case.Args, MakePrims(),
                                  Opts.MaxSteps);
      if (RefRet.has_value() != Opt.Ret.has_value()) {
        Mismatch(strFormat(
            "optimized code diverges on stuckness (interp: %s / opt vm: %s)",
            RefRet ? "ok" : Ref.error().c_str(),
            Opt.Ret ? "ok" : Opt.Error.c_str()));
        return Report;
      }
      if (RefRet) {
        if (*RefRet != *Opt.Ret) {
          Mismatch(strFormat(
              "optimizer changed the result: interp %lld vs opt vm %lld",
              static_cast<long long>(*RefRet),
              static_cast<long long>(*Opt.Ret)));
          return Report;
        }
        if (Ref.trace() != Opt.Trace) {
          Mismatch("optimizer changed the primitive trace");
          return Report;
        }
        if (Ref.globals() != Opt.Globals) {
          Mismatch("optimizer changed the final global memory");
          return Report;
        }
      }
    }

    if (AllStuck)
      // Every execution went wrong; the compiler (and, when checked, the
      // optimizer) preserved the error behavior.
      ++Report.BothStuck;
  }
  return Report;
}

} // namespace

ValidationReport
ccal::validateTranslation(const ClightModule &Src,
                          const std::vector<ValidationCase> &Cases,
                          const std::function<PrimHandler()> &MakePrims,
                          const ValidationOptions &Opts) {
  // Load-or-recheck front-end: cacheable only when the caller named the
  // opaque primitive-handler factory via ValidationOptions::PrimsKey.
  cert::CertStore *Store = cert::store();
  if (!Store || Opts.PrimsKey.empty())
    return validateTranslationImpl(Src, Cases, MakePrims, Opts);

  cert::CertKey Key;
  Key.Checker = "validate";
  Key.Version = ValidateCheckerVersion;
  Key.Desc = strFormat("translation validation: %s (%zu cases)",
                       Src.Name.c_str(), Cases.size());
  Hasher H;
  cert::keyAddModule(H, Src);
  H.u64(Cases.size());
  for (const ValidationCase &Case : Cases) {
    H.str(Case.Fn);
    H.i64s(Case.Args);
  }
  H.u64(Opts.MaxSteps).b(Opts.CheckOptimized).str(Opts.PrimsKey);
  Key.Hash = H.value();

  ValidationReport Report;
  Store->getOrCheck(
      Key,
      [&](const cert::CertStore::Entry &E) {
        return validationFromPayload(E.Payload, Report);
      },
      [&] {
        Report = validateTranslationImpl(Src, Cases, MakePrims, Opts);
        cert::CertStore::Entry Out;
        auto C = std::make_shared<RefinementCertificate>();
        C->Rule = "Validate";
        C->Underlay = Src.Name + ".lasm";
        C->Module = Src.Name;
        C->Overlay = Src.Name + " (ClightX reference)";
        C->Relation = "trace-equality";
        // Every requested case was executed to a verdict, so coverage is
        // complete by construction even when the verdict is a mismatch.
        C->CoverageComplete = true;
        C->Coverage = strFormat("%llu of %zu cases",
                                static_cast<unsigned long long>(
                                    Report.CasesChecked),
                                Cases.size());
        C->Valid = Report.Ok;
        C->Obligations = Report.CasesChecked;
        if (!Report.Ok)
          C->Notes.push_back(Report.Error);
        Out.Cert = std::move(C);
        Out.Payload = validationToPayload(Report);
        return Out;
      });
  return Report;
}

ValidationReport
ccal::validateTranslation(const ClightModule &Src,
                          const std::vector<ValidationCase> &Cases,
                          const std::function<PrimHandler()> &MakePrims,
                          std::uint64_t MaxSteps) {
  ValidationOptions Opts;
  Opts.MaxSteps = MaxSteps;
  return validateTranslation(Src, Cases, MakePrims, Opts);
}
