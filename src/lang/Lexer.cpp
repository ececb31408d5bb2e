//===- lang/Lexer.cpp - ClightX lexer --------------------------------------===//

#include "lang/Lexer.h"

#include "support/Arith.h"
#include "support/Text.h"

#include <cctype>
#include <map>

using namespace ccal;

static const std::map<std::string, TokenKind> &keywordTable() {
  static const std::map<std::string, TokenKind> Table = {
      {"int", TokenKind::KwInt},           {"uint", TokenKind::KwUint},
      {"void", TokenKind::KwVoid},         {"extern", TokenKind::KwExtern},
      {"volatile", TokenKind::KwVolatile}, {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},         {"while", TokenKind::KwWhile},
      {"for", TokenKind::KwFor},           {"return", TokenKind::KwReturn},
      {"break", TokenKind::KwBreak},       {"continue", TokenKind::KwContinue},
  };
  return Table;
}

LexResult ccal::lex(const std::string &Source) {
  LexResult Out;
  size_t I = 0, N = Source.size();
  int Line = 1;

  auto Error = [&](const std::string &Msg) {
    Out.Error = strFormat("line %d: %s", Line, Msg.c_str());
    return Out;
  };
  auto Push = [&](TokenKind K, std::string Text = "", std::int64_t V = 0) {
    Token T;
    T.Kind = K;
    T.Text = std::move(Text);
    T.IntVal = V;
    T.Line = Line;
    Out.Tokens.push_back(std::move(T));
  };

  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++I;
      continue;
    }
    // Comments.
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < N && Source[I + 1] == '*') {
      I += 2;
      while (I + 1 < N && !(Source[I] == '*' && Source[I + 1] == '/')) {
        if (Source[I] == '\n')
          ++Line;
        ++I;
      }
      if (I + 1 >= N)
        return Error("unterminated block comment");
      I += 2;
      continue;
    }
    // Identifiers and keywords.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t B = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      std::string Word = Source.substr(B, I - B);
      auto It = keywordTable().find(Word);
      if (It != keywordTable().end())
        Push(It->second);
      else
        Push(TokenKind::Ident, Word);
      continue;
    }
    // Integer literals (decimal or 0x hex); 'u'/'U' suffix accepted.
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t B = I;
      int Base = 10;
      if (C == '0' && I + 1 < N && (Source[I + 1] == 'x' || Source[I + 1] == 'X')) {
        Base = 16;
        I += 2;
        B = I;
        if (I >= N || !std::isxdigit(static_cast<unsigned char>(Source[I])))
          return Error("malformed hex literal");
      }
      while (I < N &&
             (Base == 16
                  ? std::isxdigit(static_cast<unsigned char>(Source[I])) != 0
                  : std::isdigit(static_cast<unsigned char>(Source[I])) != 0))
        ++I;
      std::int64_t V = 0;
      for (size_t K = B; K != I; ++K) {
        char D = Source[K];
        int Digit = std::isdigit(static_cast<unsigned char>(D))
                        ? D - '0'
                        : std::tolower(static_cast<unsigned char>(D)) - 'a' + 10;
        V = wrapAdd(wrapMul(V, Base), Digit);
      }
      if (I < N && (Source[I] == 'u' || Source[I] == 'U'))
        ++I;
      Push(TokenKind::IntLit, "", V);
      continue;
    }
    // Punctuation.
    auto Two = [&](char A, char B, TokenKind K) {
      if (C == A && I + 1 < N && Source[I + 1] == B) {
        Push(K);
        I += 2;
        return true;
      }
      return false;
    };
    if (Two('=', '=', TokenKind::EqEq) || Two('!', '=', TokenKind::NotEq) ||
        Two('<', '=', TokenKind::LessEq) ||
        Two('>', '=', TokenKind::GreaterEq) ||
        Two('&', '&', TokenKind::AmpAmp) || Two('|', '|', TokenKind::PipePipe))
      continue;
    TokenKind K;
    switch (C) {
    case '(':
      K = TokenKind::LParen;
      break;
    case ')':
      K = TokenKind::RParen;
      break;
    case '{':
      K = TokenKind::LBrace;
      break;
    case '}':
      K = TokenKind::RBrace;
      break;
    case '[':
      K = TokenKind::LBracket;
      break;
    case ']':
      K = TokenKind::RBracket;
      break;
    case ',':
      K = TokenKind::Comma;
      break;
    case ';':
      K = TokenKind::Semi;
      break;
    case '=':
      K = TokenKind::Assign;
      break;
    case '+':
      K = TokenKind::Plus;
      break;
    case '-':
      K = TokenKind::Minus;
      break;
    case '*':
      K = TokenKind::Star;
      break;
    case '/':
      K = TokenKind::Slash;
      break;
    case '%':
      K = TokenKind::Percent;
      break;
    case '<':
      K = TokenKind::Less;
      break;
    case '>':
      K = TokenKind::Greater;
      break;
    case '!':
      K = TokenKind::Bang;
      break;
    default:
      return Error(strFormat("unexpected character '%c'", C));
    }
    Push(K);
    ++I;
  }
  Push(TokenKind::Eof);
  return Out;
}
