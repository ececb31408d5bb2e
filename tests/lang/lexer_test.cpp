//===- tests/lang/lexer_test.cpp - ClightX lexer tests -------------------------===//

#include "lang/Lexer.h"

#include <gtest/gtest.h>

#include <limits>

using namespace ccal;

namespace {

std::vector<TokenKind> kindsOf(const std::string &Src) {
  LexResult R = lex(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  std::vector<TokenKind> Out;
  for (const Token &T : R.Tokens)
    Out.push_back(T.Kind);
  return Out;
}

} // namespace

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto Kinds = kindsOf("int foo while whilex");
  EXPECT_EQ(Kinds,
            (std::vector<TokenKind>{TokenKind::KwInt, TokenKind::Ident,
                                    TokenKind::KwWhile, TokenKind::Ident,
                                    TokenKind::Eof}));
}

TEST(LexerTest, IntegerLiterals) {
  // Literals beyond INT64_MAX wrap modulo 2^64, like ClightX arithmetic.
  LexResult R = lex("0 42 0x2a 7u 0xffffffffffffffff 9223372036854775808");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Tokens[0].IntVal, 0);
  EXPECT_EQ(R.Tokens[1].IntVal, 42);
  EXPECT_EQ(R.Tokens[2].IntVal, 42);
  EXPECT_EQ(R.Tokens[3].IntVal, 7);
  EXPECT_EQ(R.Tokens[4].IntVal, -1);
  EXPECT_EQ(R.Tokens[5].IntVal, std::numeric_limits<std::int64_t>::min());
}

TEST(LexerTest, TwoCharOperators) {
  auto Kinds = kindsOf("== != <= >= && || = < >");
  EXPECT_EQ(Kinds,
            (std::vector<TokenKind>{
                TokenKind::EqEq, TokenKind::NotEq, TokenKind::LessEq,
                TokenKind::GreaterEq, TokenKind::AmpAmp, TokenKind::PipePipe,
                TokenKind::Assign, TokenKind::Less, TokenKind::Greater,
                TokenKind::Eof}));
}

TEST(LexerTest, CommentsAreSkipped) {
  auto Kinds = kindsOf("a // line comment\n /* block\n comment */ b");
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{TokenKind::Ident, TokenKind::Ident,
                                           TokenKind::Eof}));
}

TEST(LexerTest, LineNumbersTracked) {
  LexResult R = lex("a\nb\n\nc");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Tokens[0].Line, 1);
  EXPECT_EQ(R.Tokens[1].Line, 2);
  EXPECT_EQ(R.Tokens[2].Line, 4);
}

TEST(LexerTest, RejectsUnknownCharacter) {
  LexResult R = lex("a $ b");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unexpected"), std::string::npos);
}

TEST(LexerTest, RejectsUnterminatedBlockComment) {
  LexResult R = lex("a /* never closed");
  EXPECT_FALSE(R.ok());
}
